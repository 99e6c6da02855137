// Package transport abstracts the byte-stream transports the PARDIS
// ORB runs over. The original system used NexusLite for network
// transport; here two transports are provided behind one interface:
//
//   - "tcp"    — real sockets via the net package, used by the
//     daemons, the examples, and the cross-process tests;
//   - "inproc" — synchronous in-memory pipes (net.Pipe), used to wire
//     client and server threads inside one test process without
//     touching the network stack.
//
// Endpoints are strings of the form "scheme:address", e.g.
// "tcp:127.0.0.1:9050" or "inproc:diffusion-server-3". The Registry
// maps schemes to transports; the package-level Default registry has
// both built-in transports installed.
package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"pardis/internal/telemetry"
)

// Errors returned by transports.
var (
	ErrBadEndpoint = errors.New("transport: malformed endpoint")
	ErrUnknown     = errors.New("transport: unknown scheme")
	ErrClosed      = errors.New("transport: closed")
	ErrNotFound    = errors.New("transport: no listener at address")
	ErrDialTimeout = errors.New("transport: dial timeout")
)

// Conn is a reliable, ordered, full-duplex byte stream.
type Conn = net.Conn

// Listener accepts inbound connections at a bound endpoint.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Endpoint returns the full "scheme:address" this listener is
	// reachable at (with any wildcard port resolved).
	Endpoint() string
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
}

// Transport creates listeners and outbound connections for one scheme.
type Transport interface {
	// Scheme returns the endpoint prefix this transport serves.
	Scheme() string
	// Listen binds to address (the part after "scheme:").
	Listen(address string) (Listener, error)
	// Dial connects to address.
	Dial(address string) (Conn, error)
}

// SplitEndpoint separates "scheme:address" into its parts.
func SplitEndpoint(endpoint string) (scheme, address string, err error) {
	i := strings.IndexByte(endpoint, ':')
	if i <= 0 || i == len(endpoint)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadEndpoint, endpoint)
	}
	return endpoint[:i], endpoint[i+1:], nil
}

// JoinEndpoint forms "scheme:address".
func JoinEndpoint(scheme, address string) string { return scheme + ":" + address }

// Registry resolves endpoint schemes to transports.
type Registry struct {
	mu         sync.RWMutex
	transports map[string]Transport
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{transports: make(map[string]Transport)}
}

// Register installs a transport for its scheme, replacing any previous
// one.
func (r *Registry) Register(t Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transports[t.Scheme()] = t
}

// Lookup returns the transport for a scheme.
func (r *Registry) Lookup(scheme string) (Transport, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.transports[scheme]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, scheme)
	}
	return t, nil
}

// Listen binds a listener at the given "scheme:address" endpoint.
// Accepted connections are metered into the telemetry registry.
func (r *Registry) Listen(endpoint string) (Listener, error) {
	scheme, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	t, err := r.Lookup(scheme)
	if err != nil {
		return nil, err
	}
	l, err := t.Listen(addr)
	if err != nil {
		return nil, err
	}
	return meteredListener{
		Listener: l,
		scheme:   scheme,
		accepts:  telemetry.Default.Counter("pardis_transport_accepts_total", "scheme", scheme),
	}, nil
}

// Dial connects to the given "scheme:address" endpoint. The returned
// connection is metered into the telemetry registry.
func (r *Registry) Dial(endpoint string) (Conn, error) {
	scheme, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	t, err := r.Lookup(scheme)
	if err != nil {
		return nil, err
	}
	c, err := t.Dial(addr)
	if err != nil {
		if telemetry.LogEnabled(slog.LevelDebug) {
			telemetry.Logger().Debug("transport dial failed", "scheme", scheme, "err", err)
		}
		return nil, err
	}
	return meterConn(c, scheme), nil
}

// Default is the process-wide registry with "tcp" and a process-wide
// "inproc" transport installed.
var Default = func() *Registry {
	r := NewRegistry()
	r.Register(TCP{})
	r.Register(NewInproc())
	return r
}()

// Default TCP timers, used when the corresponding TCP field is zero.
const (
	// DefaultDialTimeout bounds how long a TCP dial may block; an
	// unreachable host fails fast instead of waiting out the kernel's
	// SYN retransmission schedule (minutes).
	DefaultDialTimeout = 10 * time.Second
	// DefaultKeepAlive is the TCP keep-alive probe period, so a peer
	// that vanished without a FIN (power loss, cable pull) is detected
	// instead of holding the connection open forever.
	DefaultKeepAlive = 30 * time.Second
)

// TCP is the sockets transport. The zero value uses the default dial
// timeout and keep-alive period; set the fields (and re-Register) to
// override, or a negative KeepAlive to disable probes.
type TCP struct {
	// DialTimeout bounds Dial (0 means DefaultDialTimeout).
	DialTimeout time.Duration
	// KeepAlive is the keep-alive probe period for dialed and
	// accepted connections (0 means DefaultKeepAlive, < 0 disables).
	KeepAlive time.Duration
}

// Scheme implements Transport.
func (TCP) Scheme() string { return "tcp" }

func (t TCP) keepAlive() time.Duration {
	if t.KeepAlive == 0 {
		return DefaultKeepAlive
	}
	return t.KeepAlive
}

// Listen implements Transport. Address "127.0.0.1:0" binds an
// ephemeral port, reported by the listener's Endpoint.
func (t TCP) Listen(address string) (Listener, error) {
	lc := net.ListenConfig{KeepAlive: t.keepAlive()}
	l, err := lc.Listen(context.Background(), "tcp", address)
	if err != nil {
		return nil, err
	}
	return tcpListener{l}, nil
}

// Dial implements Transport.
func (t TCP) Dial(address string) (Conn, error) {
	timeout := t.DialTimeout
	if timeout == 0 {
		timeout = DefaultDialTimeout
	}
	d := net.Dialer{Timeout: timeout, KeepAlive: t.keepAlive()}
	c, err := d.Dial("tcp", address)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, fmt.Errorf("%w: tcp:%s after %v", ErrDialTimeout, address, timeout)
		}
		return nil, err
	}
	return c, nil
}

type tcpListener struct{ l net.Listener }

func (t tcpListener) Accept() (Conn, error) { return t.l.Accept() }
func (t tcpListener) Endpoint() string      { return "tcp:" + t.l.Addr().String() }
func (t tcpListener) Close() error          { return t.l.Close() }

// DefaultInprocDialTimeout bounds how long an inproc Dial waits for a
// backlog slot when Inproc.DialTimeout is zero. A listener whose
// backlog (16) is full and never drained used to block dialers
// forever; now they fail with ErrDialTimeout.
const DefaultInprocDialTimeout = 5 * time.Second

// Inproc is an in-memory transport: listeners are registered in a
// name table and Dial pairs the caller with an Accept via net.Pipe.
type Inproc struct {
	// DialTimeout bounds how long Dial waits for a backlog slot
	// (0 means DefaultInprocDialTimeout, < 0 waits forever). Set it
	// before sharing the transport.
	DialTimeout time.Duration

	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// NewInproc returns a fresh in-process transport (its own namespace).
func NewInproc() *Inproc {
	return &Inproc{listeners: make(map[string]*inprocListener)}
}

// Scheme implements Transport.
func (i *Inproc) Scheme() string { return "inproc" }

// Listen implements Transport. The address "*" allocates a unique
// name.
func (i *Inproc) Listen(address string) (Listener, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if address == "*" {
		i.nextAuto++
		address = fmt.Sprintf("auto-%d", i.nextAuto)
	}
	if _, exists := i.listeners[address]; exists {
		return nil, fmt.Errorf("transport: inproc address %q already bound", address)
	}
	l := &inprocListener{
		owner:   i,
		address: address,
		backlog: make(chan Conn, 16),
		closed:  make(chan struct{}),
	}
	i.listeners[address] = l
	return l, nil
}

// Dial implements Transport. It fails with ErrNotFound when no
// listener is bound (or the listener closes while the dial is
// queued), and with ErrDialTimeout when the listener's backlog stays
// full past the dial timeout.
func (i *Inproc) Dial(address string) (Conn, error) {
	i.mu.Lock()
	l, ok := i.listeners[address]
	i.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: inproc:%s", ErrNotFound, address)
	}
	client, server := net.Pipe()
	refuse := func(err error) (Conn, error) {
		client.Close()
		server.Close()
		return nil, err
	}
	// Fast path; also guarantees a closed listener is seen even when
	// a backlog slot is free (select picks ready cases at random).
	select {
	case <-l.closed:
		return refuse(fmt.Errorf("%w: inproc:%s", ErrNotFound, address))
	default:
	}
	timeout := i.DialTimeout
	if timeout == 0 {
		timeout = DefaultInprocDialTimeout
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed:
		return refuse(fmt.Errorf("%w: inproc:%s", ErrNotFound, address))
	case <-expired:
		return refuse(fmt.Errorf("%w: inproc:%s backlog full after %v", ErrDialTimeout, address, timeout))
	}
}

type inprocListener struct {
	owner     *Inproc
	address   string
	backlog   chan Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Endpoint() string { return "inproc:" + l.address }

func (l *inprocListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.owner.mu.Lock()
		delete(l.owner.listeners, l.address)
		l.owner.mu.Unlock()
		// Drain and close queued, never-accepted connections.
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}
