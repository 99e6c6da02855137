// A counting tcp transport for the traced run: it forwards to
// transport.TCP and counts the Read and Write calls the system makes on
// its sockets (the syscalls-per-op lever). It forwards WriteBuffers to
// the raw *net.TCPConn so the gather write stays one writev.
package main

import (
	"net"
	"sync/atomic"

	"pardis/internal/transport"
)

type countingTCP struct {
	inner  transport.TCP
	reads  atomic.Int64
	writes atomic.Int64
}

func (c *countingTCP) Scheme() string { return c.inner.Scheme() }

func (c *countingTCP) Dial(address string) (transport.Conn, error) {
	conn, err := c.inner.Dial(address)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, t: c}, nil
}

func (c *countingTCP) Listen(address string) (transport.Listener, error) {
	l, err := c.inner.Listen(address)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, t: c}, nil
}

type countingListener struct {
	transport.Listener
	t *countingTCP
}

func (l countingListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, t: l.t}, nil
}

type countingConn struct {
	net.Conn
	t *countingTCP
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.t.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.t.writes.Add(1)
	return c.Conn.Write(b)
}

// WriteBuffers is the hook transport's metered conn and giop's frame
// writer look for; net.Buffers.WriteTo vectorises on the raw TCP conn.
func (c *countingConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.t.writes.Add(1)
	return v.WriteTo(c.Conn)
}
