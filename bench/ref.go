// The reference kernel. FROZEN: a change that claims a gain may not
// edit this file — every timing metric of the benchmark is a ratio
// against what this code measures in the same seconds.
//
// refEcho(k, bytes, collective) holds k bare *net.TCPConn pairs on
// 127.0.0.1 — the net package directly, not internal/transport, so a
// transport-layer gain shows in the ratio. One exchange writes `bytes`
// on a connection and reads the same `bytes` back from a per-connection
// echo goroutine. Above refInlineMax the write runs on its own
// goroutine, concurrently with the read, as a full-duplex bulk transfer
// does; at or below it the bytes fit the socket buffer and the exchange
// is a plain write-then-read ping-pong. Buffers and sample slices are
// allocated once; the steady state allocates nothing.
//
// collective=false: the k connections run independent closed loops and
// share a budget of rounds (like k independent callers); every
// exchange is one timed round.
// collective=true: a round starts all k exchanges together and ends
// when the last one finishes (like one SPMD operation on k threads);
// the coordinator times the round.
package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// refInlineMax is the largest exchange done as write-then-read on one
// goroutine; it is far below the smallest loopback socket buffer.
const refInlineMax = 32 << 10

// refEchoChunk is the echo server's read buffer.
const refEchoChunk = 256 << 10

type refEcho struct {
	k          int
	bytes      int
	collective bool

	ln      *net.TCPListener
	conns   []*refConn
	wg      sync.WaitGroup
	budget  atomic.Int64
	done    chan error
	roundNs []int64 // collective: one entry per round
}

type refConn struct {
	c       *net.TCPConn
	out, in []byte
	start   chan struct{}
	wr      chan struct{}
	wrDone  chan error
	lat     []int64 // non-collective: one entry per exchange
	seq     byte
}

func newRefEcho(k, bytes int, collective bool) (*refEcho, error) {
	if k < 1 || bytes < 1 {
		return nil, fmt.Errorf("ref: k=%d bytes=%d", k, bytes)
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("ref: listen: %w", err)
	}
	r := &refEcho{k: k, bytes: bytes, collective: collective, ln: ln, done: make(chan error, k)}
	for i := 0; i < k; i++ {
		c, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("ref: dial: %w", err)
		}
		s, err := ln.AcceptTCP()
		if err != nil {
			c.Close()
			r.close()
			return nil, fmt.Errorf("ref: accept: %w", err)
		}
		rc := &refConn{
			c:     c,
			out:   make([]byte, bytes),
			in:    make([]byte, bytes),
			start: make(chan struct{}),
		}
		for j := range rc.out {
			rc.out[j] = byte(j*31 + i)
		}
		r.conns = append(r.conns, rc)
		r.wg.Add(2)
		go r.serve(s)
		go r.work(rc)
		if bytes > refInlineMax {
			rc.wr = make(chan struct{})
			rc.wrDone = make(chan error, 1)
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				for range rc.wr {
					_, err := rc.c.Write(rc.out)
					rc.wrDone <- err
				}
			}()
		}
	}
	return r, nil
}

// serve echoes whatever arrives until the client closes.
func (r *refEcho) serve(s *net.TCPConn) {
	defer r.wg.Done()
	defer s.Close()
	n := r.bytes
	if n > refEchoChunk {
		n = refEchoChunk
	}
	buf := make([]byte, n)
	for {
		n, err := s.Read(buf)
		if n > 0 {
			if _, werr := s.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// exchange sends the buffer and reads its echo, checking both ends of
// it so that a stale or short echo cannot pass for work done.
func (rc *refConn) exchange() error {
	rc.seq++
	last := len(rc.out) - 1
	rc.out[0], rc.out[last] = rc.seq, rc.seq
	if rc.wr != nil {
		rc.wr <- struct{}{}
		_, rerr := io.ReadFull(rc.c, rc.in)
		if werr := <-rc.wrDone; werr != nil {
			return werr
		}
		if rerr != nil {
			return rerr
		}
	} else {
		if _, err := rc.c.Write(rc.out); err != nil {
			return err
		}
		if _, err := io.ReadFull(rc.c, rc.in); err != nil {
			return err
		}
	}
	if rc.in[0] != rc.seq || rc.in[last] != rc.seq {
		return fmt.Errorf("ref: echo mismatch")
	}
	return nil
}

// work is one connection's client loop: each start token runs either
// one exchange (collective) or exchanges until the shared budget is
// spent (independent).
func (r *refEcho) work(rc *refConn) {
	defer r.wg.Done()
	for range rc.start {
		var err error
		if r.collective {
			err = rc.exchange()
		} else {
			for err == nil && r.budget.Add(-1) >= 0 {
				t0 := time.Now()
				err = rc.exchange()
				rc.lat = append(rc.lat, int64(time.Since(t0)))
			}
		}
		r.done <- err
	}
}

func (r *refEcho) startAll() {
	for _, rc := range r.conns {
		rc.start <- struct{}{}
	}
}

func (r *refEcho) waitAll() error {
	var first error
	for range r.conns {
		if err := <-r.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run performs `rounds` rounds and returns the wall time of the slice
// and the per-round times in nanoseconds. The returned slice is reused
// by the next call.
func (r *refEcho) run(rounds int) (time.Duration, []int64, error) {
	if cap(r.roundNs) < rounds {
		r.roundNs = make([]int64, 0, rounds)
		for _, rc := range r.conns {
			rc.lat = make([]int64, 0, rounds)
		}
	}
	r.roundNs = r.roundNs[:0]
	t0 := time.Now()
	if r.collective {
		for i := 0; i < rounds; i++ {
			s := time.Now()
			r.startAll()
			if err := r.waitAll(); err != nil {
				return 0, nil, err
			}
			r.roundNs = append(r.roundNs, int64(time.Since(s)))
		}
		return time.Since(t0), r.roundNs, nil
	}
	for _, rc := range r.conns {
		rc.lat = rc.lat[:0]
	}
	r.budget.Store(int64(rounds))
	r.startAll()
	if err := r.waitAll(); err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(t0)
	for _, rc := range r.conns {
		r.roundNs = append(r.roundNs, rc.lat...)
	}
	return elapsed, r.roundNs, nil
}

func (r *refEcho) close() {
	for _, rc := range r.conns {
		close(rc.start)
		if rc.wr != nil {
			close(rc.wr)
		}
		rc.c.Close()
	}
	r.ln.Close()
	r.wg.Wait()
}
