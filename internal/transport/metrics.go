// Transport-level telemetry. Every connection obtained through a
// Registry (dialed or accepted) is wrapped in a metered conn that
// feeds the process-wide registry:
//
//	pardis_transport_accepts_total{scheme}       accepted connections
//	pardis_transport_bytes_written_total{scheme} bytes onto the wire
//	pardis_transport_conns_open{scheme}          currently open conns
//
// The wrapper is a straight pass-through net.Conn: byte accounting is
// one atomic add per Write, so the hot path stays allocation free.
package transport

import (
	"net"
	"sync"

	"pardis/internal/telemetry"
)

// meteredConn counts written bytes and open-conn state for one
// connection.
type meteredConn struct {
	Conn
	out       *telemetry.Counter
	open      *telemetry.Gauge
	closeOnce sync.Once
}

// meterConn wraps c with byte and open-connection accounting for its
// scheme. The instruments are interned once per wrap, not per I/O call.
func meterConn(c Conn, scheme string) Conn {
	mc := &meteredConn{
		Conn: c,
		out:  telemetry.Default.Counter("pardis_transport_bytes_written_total", "scheme", scheme),
		open: telemetry.Default.Gauge("pardis_transport_conns_open", "scheme", scheme),
	}
	mc.open.Inc()
	return mc
}

func (m *meteredConn) Write(b []byte) (int, error) {
	n, err := m.Conn.Write(b)
	if n > 0 {
		m.out.Add(uint64(n))
	}
	return n, err
}

// WriteBuffers forwards a gather write to the wrapped connection,
// preserving the single-writev path (net.Buffers only vectorizes for
// a raw *net.TCPConn, which the metering wrapper would otherwise
// hide). Frame writers discover this method via giop.BuffersWriter.
func (m *meteredConn) WriteBuffers(v *net.Buffers) (int64, error) {
	var n int64
	var err error
	if bw, ok := m.Conn.(interface {
		WriteBuffers(*net.Buffers) (int64, error)
	}); ok {
		n, err = bw.WriteBuffers(v)
	} else {
		n, err = v.WriteTo(m.Conn)
	}
	if n > 0 {
		m.out.Add(uint64(n))
	}
	return n, err
}

// Close decrements the open gauge exactly once, however many times the
// connection is closed.
func (m *meteredConn) Close() error {
	m.closeOnce.Do(m.open.Dec)
	return m.Conn.Close()
}

// meteredListener wraps accepted connections and counts accepts.
type meteredListener struct {
	Listener
	scheme  string
	accepts *telemetry.Counter
}

func (ml meteredListener) Accept() (Conn, error) {
	c, err := ml.Listener.Accept()
	if err != nil {
		return nil, err
	}
	ml.accepts.Inc()
	return meterConn(c, ml.scheme), nil
}
