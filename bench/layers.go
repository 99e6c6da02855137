// Layer replays for the traced run: each times calls into one package's
// public functions from outside, with the shapes the workloads use. They
// run after the cycles, on an otherwise idle process.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"pardis/internal/agent"
	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/naming"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/spmd"
	"pardis/internal/telemetry"
	"pardis/internal/transport"
	"pardis/internal/tune"
)

const (
	replayBatches = 5

	bulkDoubles   = 1 << 19   // cdr bulk codec shape (4 MiB)
	blockDoubles  = 1 << 16   // orb put/send block shape (512 KiB)
	seqDoubles    = 1 << 20   // dseq gather/scatter/redistribute shape
	streamChunk   = 256 << 10 // write size of a stream
	memcpyBytes   = 64 << 20  // array size of the memcpy roofline
	pingPongBytes = 64
	eagerBytes    = 64 << 10 // mp.send_recv shape
)

// replayPlan is how long the replays measure; the tests shrink it.
type replayPlan struct {
	batch       time.Duration // one timed batch of perCall
	streamBytes int           // bytes moved per stream measurement
	collDiv     int           // divides the iteration counts of collectives
	coldCycles  int           // cold-start cycles
}

var fullReplay = replayPlan{batch: 8 * time.Millisecond, streamBytes: 64 << 20, collDiv: 1, coldCycles: 20}

// replayer runs the layer replays of one traced run into ls.
type replayer struct {
	replayPlan
	ls layerSet
	h  *harness
	w  workload
}

// layerSet collects per-layer metrics by name.
type layerSet map[string]metricValue

func (ls layerSet) put(name string, v float64, unit string) { ls[name] = metricValue{v, unit} }
func (ls layerSet) get(name string) float64                 { return ls[name].Value }

// perCall is the median over replayBatches batches of the time one call
// of fn takes, in ns; fn(n) makes n calls. The batch size is found by
// doubling until a batch lasts r.batch.
func (r *replayer) perCall(fn func(n int) error) (float64, error) {
	n := 1
	for {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		if time.Since(t0) >= r.batch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, 0, replayBatches)
	for b := 0; b < replayBatches; b++ {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), nil
}

func mbps(bytes int, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

// ---------------------------------------------------------------------
// connection pairs: bare net, net.Pipe, and transport.Registry

type connPair struct {
	a, b  net.Conn
	close func()
}

func bareTCPPair() (*connPair, error) {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	a, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		return nil, err
	}
	b, err := ln.AcceptTCP()
	if err != nil {
		a.Close()
		return nil, err
	}
	return &connPair{a: a, b: b, close: func() { a.Close(); b.Close() }}, nil
}

func pipePair() *connPair {
	a, b := net.Pipe()
	return &connPair{a: a, b: b, close: func() { a.Close(); b.Close() }}
}

// registryPair dials through transport.Registry, so both ends are the
// metered connections the ORB uses.
func registryPair(reg *transport.Registry, endpoint string) (*connPair, error) {
	l, err := reg.Listen(endpoint)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := reg.Dial(l.Endpoint())
	if err != nil {
		return nil, err
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		return nil, acc.err
	}
	return &connPair{a: a, b: acc.c, close: func() { a.Close(); acc.c.Close() }}, nil
}

// streamMBps moves streamBytes from a to b in streamChunk writes, three
// times, and returns the median rate.
func (r *replayer) streamMBps(p *connPair) (float64, error) {
	out := make([]byte, streamChunk)
	in := make([]byte, streamChunk)
	rates := make([]float64, 0, 3)
	for i := 0; i < 3; i++ {
		werr := make(chan error, 1)
		t0 := time.Now()
		go func() {
			for sent := 0; sent < r.streamBytes; sent += len(out) {
				if _, err := p.a.Write(out); err != nil {
					werr <- err
					return
				}
			}
			werr <- nil
		}()
		for got := 0; got < r.streamBytes; {
			n, err := p.b.Read(in)
			if err != nil {
				return 0, err
			}
			got += n
		}
		if err := <-werr; err != nil {
			return 0, err
		}
		rates = append(rates, mbps(r.streamBytes, float64(time.Since(t0))))
	}
	return median(rates), nil
}

// pingPongUs bounces pingPongBytes between a and b; b's echo goroutine
// ends when the pair is closed.
func (r *replayer) pingPongUs(p *connPair) (float64, error) {
	go func() {
		buf := make([]byte, pingPongBytes)
		for {
			if _, err := io.ReadFull(p.b, buf); err != nil {
				return
			}
			if _, err := p.b.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, pingPongBytes)
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := p.a.Write(buf); err != nil {
				return err
			}
			if _, err := io.ReadFull(p.a, buf); err != nil {
				return err
			}
		}
		return nil
	})
	return ns / 1e3, err
}

// streamAndPingPong measures one pair and closes it.
func (r *replayer) streamAndPingPong(p *connPair) (mb, us float64, err error) {
	defer p.close()
	if mb, err = r.streamMBps(p); err != nil {
		return 0, 0, err
	}
	us, err = r.pingPongUs(p)
	return mb, us, err
}

// ---------------------------------------------------------------------
// replays, one function per layer

func (r *replayer) replayRoofline() error {
	src := make([]byte, memcpyBytes)
	dst := make([]byte, memcpyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			copy(dst, src)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.ls.put("roofline.memcpy_MBps", mbps(memcpyBytes, ns), "MB/s")

	p, err := bareTCPPair()
	if err != nil {
		return err
	}
	mb, us, err := r.streamAndPingPong(p)
	if err != nil {
		return fmt.Errorf("roofline tcp: %w", err)
	}
	r.ls.put("roofline.tcp_stream_MBps", mb, "MB/s")
	r.ls.put("roofline.tcp_pingpong_us", us, "us")

	mb, us, err = r.streamAndPingPong(pipePair())
	if err != nil {
		return fmt.Errorf("roofline pipe: %w", err)
	}
	r.ls.put("roofline.pipe_stream_MBps", mb, "MB/s")
	r.ls.put("roofline.pipe_pingpong_us", us, "us")
	return nil
}

func (r *replayer) replayTransport() error {
	p, err := registryPair(r.h.reg, listenEndpoint)
	if err != nil {
		return err
	}
	mb, us, err := r.streamAndPingPong(p)
	if err != nil {
		return fmt.Errorf("transport tcp: %w", err)
	}
	r.ls.put("transport.tcp_stream_MBps", mb, "MB/s")
	r.ls.put("transport.tcp_pingpong_us", us, "us")

	ireg := transport.NewRegistry()
	ireg.Register(transport.NewInproc())
	p, err = registryPair(ireg, "inproc:*")
	if err != nil {
		return err
	}
	defer p.close()
	if us, err = r.pingPongUs(p); err != nil {
		return fmt.Errorf("transport inproc: %w", err)
	}
	r.ls.put("transport.inproc_pingpong_us", us, "us")

	// Dial: a fixed count, so the run leaves a bounded number of sockets
	// in TIME_WAIT.
	l, err := r.h.reg.Listen(listenEndpoint)
	if err != nil {
		return err
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	const dials = 100
	per := make([]float64, 0, dials)
	for i := 0; i < dials; i++ {
		t0 := time.Now()
		c, err := r.h.reg.Dial(l.Endpoint())
		if err != nil {
			return err
		}
		per = append(per, float64(time.Since(t0))/1e3)
		c.Close()
	}
	r.ls.put("transport.dial_us", median(per), "us")
	return nil
}

func (r *replayer) replayCDR() error {
	v := make([]float64, bulkDoubles)
	for i := range v {
		v[i] = float64(i)
	}
	e := cdr.NewEncoder(cdr.NativeOrder)
	ns, _ := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			e.Reset()
			e.PutDoubleSeq(v)
		}
		return nil
	})
	r.ls.put("cdr.put_double_seq_MBps", mbps(bulkDoubles*8, ns), "MB/s")

	wire := append([]byte(nil), e.Bytes()...)
	dst := make([]float64, bulkDoubles)
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := cdr.NewDecoder(cdr.NativeOrder, wire).DoubleSeqInto(dst); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.ls.put("cdr.get_double_seq_MBps", mbps(bulkDoubles*8, ns), "MB/s")

	small := v[:echoDoubles]
	ns, _ = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			e.Reset()
			e.PutDoubleSeq(small)
		}
		return nil
	})
	r.ls.put("cdr.small_encode_ns", ns, "ns")
	return nil
}

// frameLoop replays one frame forever.
type frameLoop struct {
	data []byte
	pos  int
}

func (l *frameLoop) Read(p []byte) (int, error) {
	if l.pos == len(l.data) {
		l.pos = 0
	}
	n := copy(p, l.data[l.pos:])
	l.pos += n
	return n, nil
}

func (r *replayer) replayGIOP() error {
	hdr := echoRequestHeader(1)
	ns, _ := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			e := giop.AcquireEncoder(cdr.NativeOrder)
			hdr.Encode(e.Encoder)
			e.Release()
		}
		return nil
	})
	r.ls.put("giop.request_encode_ns", ns, "ns")

	e := giop.AcquireEncoder(cdr.NativeOrder)
	hdr.Encode(e.Encoder)
	e.PutDoubleSeq(make([]float64, echoDoubles))
	var frame bytes.Buffer
	err := giop.WriteMessage(&frame, cdr.NativeOrder, giop.MsgRequest, e.Bytes())
	e.Release()
	if err != nil {
		return err
	}
	fr := giop.NewFrameReader(&frameLoop{data: frame.Bytes()})
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			f, err := fr.ReadFrame()
			if err != nil {
				return err
			}
			if _, err := giop.DecodeRequestHeaderV(cdr.NewDecoder(f.Order, f.Body), f.Minor); err != nil {
				return err
			}
			f.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.ls.put("giop.request_decode_ns", ns, "ns")
	return nil
}

func (r *replayer) replayORB() error {
	srv := orb.NewServer(r.h.reg)
	defer srv.Close()
	srv.Handle("echo", func(inc *orb.Incoming) {
		v, err := inc.Decoder().DoubleSeq()
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
	})
	ep, err := srv.Listen(listenEndpoint)
	if err != nil {
		return err
	}
	cli := orb.NewClient(r.h.reg)
	defer cli.Close()

	// Client.Invoke by endpoint: invoke_named minus the resolver.
	ctx := context.Background()
	payload := make([]float64, echoDoubles)
	body := func(e *cdr.Encoder) { e.PutDoubleSeq(payload) }
	hdr := echoRequestHeader(0)
	hdr.ObjectKey = "echo"
	var calls int
	var ms0, ms1 runtime.MemStats
	invoke := func(n int) error {
		for i := 0; i < n; i++ {
			hdr.InvocationID = cli.NewInvocationID()
			rh, _, _, err := cli.Invoke(ctx, ep, hdr, body)
			if err != nil {
				return err
			}
			if rh.Status != giop.ReplyOK {
				return fmt.Errorf("orb replay: status %v", rh.Status)
			}
		}
		calls += n
		return nil
	}
	if err := invoke(100); err != nil {
		return err
	}
	calls = 0
	runtime.ReadMemStats(&ms0)
	ns, err := r.perCall(invoke)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	r.ls.put("orb.invoke_us", ns/1e3, "us")
	r.ls.put("orb.invoke_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls), "count")

	// The routed-vs-window A/B at the ORB's own API: the same 512 KiB
	// block delivered by PutWindow into a registered window and by
	// SendBlock into a func sink. Each iteration is a complete land.
	blk := make([]float64, blockDoubles)
	dst := make([]float64, blockDoubles)
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			win, cancel, err := srv.RegisterWindow(1, dst, blockDoubles, nil)
			if err != nil {
				return err
			}
			if _, err := cli.PutWindow(ep, giop.WindowPutHeader{WindowID: 1, Last: true}, blk); err != nil {
				cancel()
				return err
			}
			<-win.Done()
			err = win.Err()
			cancel()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("orb put_window: %w", err)
	}
	r.ls.put("orb.put_window_MBps", mbps(blockDoubles*8, ns), "MB/s")

	landed := make(chan error, 1)
	cancel, err := srv.ExpectBlocksFunc(2, func(b orb.Block) error {
		_, err := cdr.NewDecoder(b.Order, b.Payload).DoubleSeqInto(dst)
		landed <- err
		return nil
	})
	if err != nil {
		return err
	}
	defer cancel()
	bh := giop.BlockTransferHeader{InvocationID: 2, Count: blockDoubles, Last: true}
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := cli.SendBlock(ep, bh, func(e *cdr.Encoder) { e.PutDoubleSeq(blk) }); err != nil {
				return err
			}
			if err := <-landed; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("orb send_block: %w", err)
	}
	r.ls.put("orb.send_block_MBps", mbps(blockDoubles*8, ns), "MB/s")
	return nil
}

func (r *replayer) replayDist() error {
	src := dist.Block().MustApply(r.w.elems, clientThreads)
	dst := dist.Block().MustApply(r.w.elems, serverThreads)
	chunkElems := spmd.ResolvedXferChunkBytes() / 8
	var transfers int
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			plan, err := dist.Plan(src, dst)
			if err != nil {
				return err
			}
			if chunkElems > 0 {
				plan = dist.Chunk(plan, chunkElems)
			}
			transfers = len(plan)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.ls.put("dist.plan_ns", ns, "ns")
	r.ls.put("dist.plan_transfers", float64(transfers), "count")
	return nil
}

// collective times iters calls of body on p message-passing threads,
// between two barriers, on rank 0's clock; ns per call.
func (r *replayer) collective(p, iters int, body func(th *rts.MessagePassing, i int) error) (float64, error) {
	if iters = iters / r.collDiv; iters < 2 {
		iters = 2
	}
	var elapsed time.Duration
	err := mp.Run(p, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		if err := body(th, -1); err != nil { // warm-up
			return err
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := body(th, i); err != nil {
				return err
			}
		}
		if err := th.Barrier(); err != nil {
			return err
		}
		if th.Rank() == 0 {
			elapsed = time.Since(t0)
		}
		return nil
	})
	return float64(elapsed) / float64(iters), err
}

func (r *replayer) replayDseq() error {
	for _, p := range []int{serverThreads, clientThreads} {
		seqs := make([]*dseq.Doubles, p)
		for r := range seqs {
			s, err := dseq.NewDoubles(seqDoubles, dist.Block(), p, r)
			if err != nil {
				return err
			}
			seqs[r] = s
		}
		suffix := "_MBps"
		if p == clientThreads {
			suffix = fmt.Sprintf("_p%d_MBps", p)
		}
		var whole []float64
		ns, err := r.collective(p, 8, func(th *rts.MessagePassing, _ int) error {
			g, err := dseq.GatherDoubles(seqs[th.Rank()], th, 0)
			if th.Rank() == 0 {
				whole = g
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("dseq gather p=%d: %w", p, err)
		}
		r.ls.put("dseq.gather"+suffix, mbps(seqDoubles*8, ns), "MB/s")
		ns, err = r.collective(p, 8, func(th *rts.MessagePassing, _ int) error {
			var data []float64
			if th.Rank() == 0 {
				data = whole
			}
			return dseq.ScatterDoubles(seqs[th.Rank()], th, 0, data)
		})
		if err != nil {
			return fmt.Errorf("dseq scatter p=%d: %w", p, err)
		}
		r.ls.put("dseq.scatter"+suffix, mbps(seqDoubles*8, ns), "MB/s")
	}

	prop, err := dist.Proportions(1, 3, 1, 3)
	if err != nil {
		return err
	}
	const p = serverThreads
	blockL := dist.Block().MustApply(seqDoubles, p)
	propL := prop.MustApply(seqDoubles, p)
	seqs := make([]*dseq.Doubles, p)
	for r := range seqs {
		if seqs[r], err = dseq.NewDoubles(seqDoubles, dist.Block(), p, r); err != nil {
			return err
		}
	}
	ns, err := r.collective(p, 8, func(th *rts.MessagePassing, i int) error {
		target := propL
		if i%2 == 0 { // the warm-up call (i=-1) goes to propL
			target = blockL
		}
		return seqs[th.Rank()].Redistribute(th, target)
	})
	if err != nil {
		return fmt.Errorf("dseq redistribute: %w", err)
	}
	r.ls.put("dseq.redistribute_MBps", mbps(seqDoubles*8, ns), "MB/s")
	return nil
}

func (r *replayer) replayRTS() error {
	const p = serverThreads
	hdr := make([]byte, 128)
	ns, err := r.collective(p, 2000, func(th *rts.MessagePassing, _ int) error {
		var data []byte
		if th.Rank() == 0 {
			data = hdr
		}
		_, err := th.Bcast(0, data)
		return err
	})
	if err != nil {
		return fmt.Errorf("rts bcast: %w", err)
	}
	r.ls.put("rts.bcast_us", ns/1e3, "us")

	ns, err = r.collective(p, 2000, func(th *rts.MessagePassing, _ int) error { return th.Barrier() })
	if err != nil {
		return fmt.Errorf("rts barrier: %w", err)
	}
	r.ls.put("rts.barrier_us", ns/1e3, "us")

	// One put epoch: every thread exposes a block and puts one block
	// into its right-hand neighbour.
	local := make([][]float64, p)
	src := make([][]float64, p)
	for r := range local {
		local[r] = make([]float64, blockDoubles)
		src[r] = make([]float64, blockDoubles)
	}
	ns, err = r.collective(p, 50, func(th *rts.MessagePassing, _ int) error {
		r := th.Rank()
		expect := make([]int, p)
		expect[(r+p-1)%p] = 1
		win, err := th.ExposeWindow(local[r], expect)
		if err != nil {
			return err
		}
		if err := win.Put((r+1)%p, 0, src[r]); err != nil {
			return err
		}
		return win.Fence()
	})
	if err != nil {
		return fmt.Errorf("rts window: %w", err)
	}
	r.ls.put("rts.window_put_MBps", mbps(p*blockDoubles*8, ns), "MB/s")
	return nil
}

func (r *replayer) replayMP() error {
	small := make([]byte, pingPongBytes)
	ns, err := r.collective(2, 5000, func(th *rts.MessagePassing, _ int) error {
		proc := th.Proc()
		if proc.Rank() == 0 {
			if err := proc.Send(1, 1, small); err != nil {
				return err
			}
			_, _, err := proc.Recv(1, 2)
			return err
		}
		if _, _, err := proc.Recv(0, 1); err != nil {
			return err
		}
		return proc.Send(0, 2, small)
	})
	if err != nil {
		return fmt.Errorf("mp pingpong: %w", err)
	}
	r.ls.put("mp.pingpong_us", ns/1e3, "us")

	eager := make([]byte, eagerBytes)
	ns, err = r.collective(2, 2000, func(th *rts.MessagePassing, _ int) error {
		proc := th.Proc()
		if proc.Rank() == 0 {
			return proc.Send(1, 3, eager)
		}
		_, _, err := proc.Recv(0, 3)
		return err
	})
	if err != nil {
		return fmt.Errorf("mp send_recv: %w", err)
	}
	r.ls.put("mp.send_recv_MBps", mbps(eagerBytes, ns), "MB/s")
	return nil
}

func (r *replayer) replayNaming() error {
	srv := orb.NewServer(r.h.reg)
	defer srv.Close()
	nreg := naming.NewRegistry()
	naming.Serve(srv, nreg)
	ep, err := srv.Listen(listenEndpoint)
	if err != nil {
		return err
	}
	ref := &ior.Ref{TypeID: echoTypeID, Key: objectKey, Threads: 1, Endpoints: []string{"tcp:127.0.0.1:1"}}
	if err := nreg.Bind(objectName, ref, true); err != nil {
		return err
	}
	oc := orb.NewClient(r.h.reg)
	defer oc.Close()
	nc := naming.NewClient(oc, ep)
	ctx := context.Background()
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := nc.Resolve(ctx, objectName); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("naming resolve: %w", err)
	}
	r.ls.put("naming.resolve_us", ns/1e3, "us")
	return nil
}

func (r *replayer) replayAgent() error {
	table := agent.NewTable()
	registration := func(i int) agent.Registration {
		return agent.Registration{
			Instance: fmt.Sprintf("replay-%d", i),
			TTL:      time.Minute,
			Names: []agent.NameRef{{Name: objectName, Ref: &ior.Ref{
				TypeID: echoTypeID, Key: objectKey, Threads: 1,
				Endpoints: []string{fmt.Sprintf("tcp:127.0.0.1:%d", i+1)},
			}}},
		}
	}
	for i := 0; i < 3; i++ {
		if err := table.Register(registration(i)); err != nil {
			return err
		}
	}
	ns, err := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, _, err := table.Resolve(objectName); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("agent table resolve: %w", err)
	}
	r.ls.put("agent.table_resolve_ns", ns, "ns")

	srv := orb.NewServer(r.h.reg)
	defer srv.Close()
	agent.Serve(srv, table)
	ep, err := srv.Listen(listenEndpoint)
	if err != nil {
		return err
	}
	oc := orb.NewClient(r.h.reg)
	defer oc.Close()
	ac := agent.NewClient(oc, ep)
	ctx := context.Background()
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, _, err := ac.Resolve(ctx, objectName); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("agent resolve rpc: %w", err)
	}
	r.ls.put("agent.resolve_rpc_us", ns/1e3, "us")

	beat := registration(0)
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if err := ac.Register(ctx, beat); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("agent register: %w", err)
	}
	r.ls.put("agent.register_us", ns/1e3, "us")

	// The cache-hit rung: FreshFor long enough that no call leaves it.
	res := agent.NewResolver(agent.ResolverConfig{Agent: ac, FreshFor: time.Hour})
	if _, err := res.RefFor(ctx, objectName); err != nil {
		return err
	}
	ns, err = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := res.RefFor(ctx, objectName); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("agent resolver hit: %w", err)
	}
	r.ls.put("agent.resolver_hit_ns", ns, "ns")
	return nil
}

func (r *replayer) replayTune() {
	tu := tune.New(tune.Config{Registry: telemetry.NewRegistry()})
	const ep = "tcp:127.0.0.1:1"
	tu.Probe(ep, 50*time.Microsecond)
	for i := 0; i < 8; i++ {
		tu.Record(ep, 8<<20, 10*time.Millisecond)
	}
	ns, _ := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			tu.Recommend(ep)
		}
		return nil
	})
	r.ls.put("tune.recommend_ns", ns, "ns")
	ns, _ = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			tu.Record(ep, 8<<20, 10*time.Millisecond)
		}
		return nil
	})
	r.ls.put("tune.record_ns", ns, "ns")

	// The knobs the run executed under. AutoTune is off by default, so
	// none of these moves today; a later default flip shows here as a
	// state change and not as noise.
	r.ls.put("tune.xfer_window", float64(spmd.ResolvedXferWindow()), "count")
	r.ls.put("tune.xfer_chunk_bytes", float64(spmd.ResolvedXferChunkBytes()), "B")
	r.ls.put("tune.stripes", float64(orb.DefaultStripeWidth()), "count")
	auto := 0.0
	if spmd.DefaultAutoTune {
		auto = 1
	}
	r.ls.put("tune.auto_tune", auto, "count")
}

func (r *replayer) replayTelemetry() {
	treg := telemetry.NewRegistry()
	c := treg.Counter("bench_replay_total")
	ns, _ := r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			c.Inc()
		}
		return nil
	})
	r.ls.put("telemetry.counter_inc_ns", ns, "ns")
	hist := treg.Histogram("bench_replay_seconds")
	ns, _ = r.perCall(func(n int) error {
		for i := 0; i < n; i++ {
			hist.Observe(15e-6)
		}
		return nil
	})
	r.ls.put("telemetry.histogram_observe_ns", ns, "ns")
}

// replaySPMDBind binds a fresh parallel client straight to the measured
// object's reference with spmd.Bind and times its first invocation.
func (r *replayer) replaySPMDBind(inst instance) error {
	r.ls.put("spmd.bind_us", 0, "us")
	r.ls.put("spmd.first_invoke_us", 0, "us")
	x, ok := inst.(*xferInst)
	if !ok {
		return nil // a plain client has no collective bind
	}
	ref := x.ref()
	var binds, firsts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		c, err := r.h.newXferClient(r.w, func(ctx context.Context, th rts.Thread) (*spmd.Binding, error) {
			return spmd.Bind(ctx, spmd.BindConfig{
				Thread: th, Registry: r.h.reg, Method: r.w.method, ListenEndpoint: listenEndpoint,
			}, ref)
		})
		if err != nil {
			return fmt.Errorf("spmd bind replay: %w", err)
		}
		binds = append(binds, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		_, failed, err := c.slice(1, nil)
		firsts = append(firsts, float64(time.Since(t0))/1e3)
		c.close()
		if failed > 0 {
			return fmt.Errorf("spmd first invoke: %w", err)
		}
	}
	r.ls.put("spmd.bind_us", median(binds), "us")
	r.ls.put("spmd.first_invoke_us", median(firsts), "us")
	return nil
}

// replayColdStart is the median of coldCycles (20) full cold cycles: join, export,
// register, resolve, bind, first verified reply, close.
func (r *replayer) replayColdStart() error {
	ms := make([]float64, 0, r.coldCycles)
	for i := 0; i < r.coldCycles; i++ {
		cp, err := r.h.startControlPlane()
		if err != nil {
			return err
		}
		t0 := time.Now()
		inst, err := r.h.setUp(r.w, cp, 1)
		if err != nil {
			cp.close()
			return fmt.Errorf("cold start: %w", err)
		}
		inst.close()
		ms = append(ms, float64(time.Since(t0))/1e6)
		cp.close()
	}
	r.ls.put("core.cold_start_ms", median(ms), "ms")
	return nil
}

// run runs every replay that needs the measured instance or none; the
// cold start runs after the instance is gone.
func (r *replayer) run(inst instance) error {
	for _, step := range []func() error{
		r.replayRoofline, r.replayTransport, r.replayCDR, r.replayGIOP, r.replayORB,
		r.replayDist, r.replayDseq, r.replayRTS, r.replayMP, r.replayNaming, r.replayAgent,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	r.replayTune()
	r.replayTelemetry()
	return r.replaySPMDBind(inst)
}
