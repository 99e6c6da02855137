package orb

import (
	"context"
	"fmt"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// newBenchPair builds a client/server pair over inproc with an echo
// handler for benchmarks. The server runs with admission control at
// the default caps so every benchmark exercises the admit fast path
// and its allocs/op show in -benchmem.
func newBenchPair(b *testing.B, payload int, opts ...ClientOption) (*Client, string) {
	b.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg, WithAdmission(DefaultAdmissionConfig()))
	srv.Handle("echo", func(in *Incoming) {
		d := in.Decoder()
		data, err := d.DoubleSeq()
		if err != nil {
			_ = in.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(data) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		b.Fatal(err)
	}
	cli := NewClient(reg, opts...)
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, ep
}

// BenchmarkInvokeEcho measures request/reply round trips carrying a
// double-sequence payload of various sizes.
func BenchmarkInvokeEcho(b *testing.B) {
	for _, n := range []int{0, 1 << 10, 1 << 14} {
		n := n
		b.Run(fmt.Sprintf("doubles=%d", n), func(b *testing.B) {
			cli, ep := newBenchPair(b, n)
			data := make([]float64, n)
			hdr := giop.RequestHeader{
				ResponseExpected: true,
				ObjectKey:        "echo",
				Operation:        "op",
				ThreadRank:       -1,
				ThreadCount:      1,
			}
			b.SetBytes(int64(n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hdr.InvocationID = cli.NewInvocationID()
				rh, _, _, err := cli.Invoke(context.Background(), ep, hdr,
					func(e *cdr.Encoder) { e.PutDoubleSeq(data) })
				if err != nil || rh.Status != giop.ReplyOK {
					b.Fatalf("%v %v", rh.Status, err)
				}
			}
		})
	}
}

// BenchmarkInvokeConcurrent measures pipelined invocations over one
// connection.
func BenchmarkInvokeConcurrent(b *testing.B) {
	cli, ep := newBenchPair(b, 0)
	data := make([]float64, 64)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			hdr := giop.RequestHeader{
				InvocationID:     cli.NewInvocationID(),
				ResponseExpected: true,
				ObjectKey:        "echo",
				Operation:        "op",
				ThreadRank:       -1,
				ThreadCount:      1,
			}
			rh, _, _, err := cli.Invoke(context.Background(), ep, hdr,
				func(e *cdr.Encoder) { e.PutDoubleSeq(data) })
			if err != nil || rh.Status != giop.ReplyOK {
				b.Fatalf("%v %v", rh.Status, err)
			}
		}
	})
}

// BenchmarkInvokeConcurrent8 drives at least eight concurrent
// invokers, the acceptance workload for connection striping: one
// stripe serializes every frame on a single write lock and read loop,
// wider stripes spread them.
func BenchmarkInvokeConcurrent8(b *testing.B) {
	for _, stripes := range []int{1, 4} {
		stripes := stripes
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			cli, ep := newBenchPair(b, 0, WithStripes(stripes))
			data := make([]float64, 64)
			b.SetParallelism(8)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					hdr := giop.RequestHeader{
						InvocationID:     cli.NewInvocationID(),
						ResponseExpected: true,
						ObjectKey:        "echo",
						Operation:        "op",
						ThreadRank:       -1,
						ThreadCount:      1,
					}
					rh, _, _, err := cli.Invoke(context.Background(), ep, hdr,
						func(e *cdr.Encoder) { e.PutDoubleSeq(data) })
					if err != nil || rh.Status != giop.ReplyOK {
						b.Fatalf("%v %v", rh.Status, err)
					}
				}
			})
		})
	}
}

// BenchmarkSendBlock measures one-way block shipping throughput.
func BenchmarkSendBlock(b *testing.B) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(reg)
	defer cli.Close()
	sink := make(chan Block, 1)
	cancel, err := srv.ExpectBlocksFunc(1, func(b Block) error { sink <- b; return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer cancel()
	payload := make([]float64, 1<<12)
	hdr := giop.BlockTransferHeader{InvocationID: 1, Count: uint32(len(payload))}
	b.SetBytes(int64(len(payload) * 8))
	b.ResetTimer()
	// Receive each block inline: SendBlock is fire-and-forget, so the
	// loop paces itself on delivery.
	for i := 0; i < b.N; i++ {
		if _, err := cli.SendBlock(ep, hdr, func(e *cdr.Encoder) { e.PutDoubleSeq(payload) }); err != nil {
			b.Fatal(err)
		}
		if blk := <-sink; blk.Header.InvocationID != 1 {
			b.Fatal("wrong block")
		}
	}
}

// BenchmarkWindowPut is BenchmarkSendBlock's one-sided counterpart:
// the same 32 KiB payload lands straight into a registered window with
// no CDR sequence framing and (native order) no payload copy on either
// side. The window is re-armed per put so each iteration measures
// a complete land, not a hot overshoot. The foreign sub-benchmark pins
// the client to the other byte order: no default reaches the swap path
// (encode into a pooled buffer, chunked swap on landing) any more, and
// this keeps it compiled, run and priced.
func BenchmarkWindowPut(b *testing.B) {
	for _, c := range []struct {
		name  string
		order cdr.ByteOrder
	}{{"native", cdr.NativeOrder}, {"foreign", foreignOrder()}} {
		b.Run(c.name, func(b *testing.B) {
			reg := transport.NewRegistry()
			reg.Register(transport.NewInproc())
			srv := NewServer(reg)
			ep, err := srv.Listen("inproc:*")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli := NewClient(reg, WithByteOrder(c.order))
			defer cli.Close()
			payload := make([]float64, 1<<12)
			dst := make([]float64, 1<<12)
			hdr := giop.WindowPutHeader{WindowID: 1, Last: true}
			b.SetBytes(int64(len(payload) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win, cancel, err := srv.RegisterWindow(1, dst, int64(len(payload)), nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cli.PutWindow(ep, hdr, payload); err != nil {
					b.Fatal(err)
				}
				<-win.Done()
				if err := win.Err(); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
		})
	}
}
