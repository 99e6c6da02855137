// Repository-level benchmark suite: one testing.B benchmark per
// evaluation artifact of the paper, plus real-stack measurements and
// ablations of the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem .
//
// The BenchmarkTable*/BenchmarkFigure4* benches drive the calibrated
// testbed model (reported metrics are the model's milliseconds, which
// reproduce the paper's numbers); the BenchmarkTransfer* benches run
// the real PARDIS-Go stack on this machine (absolute numbers are
// modern-hardware numbers; the *shape* — multi-port ahead at large
// sizes — is the reproduced claim).
package pardis

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/mp"
	"pardis/internal/perfmodel"
	"pardis/internal/rts"
	"pardis/internal/rts/onesided"
	"pardis/internal/simnet"
	"pardis/internal/transport"
)

// ---------------------------------------------------------------
// E1 — Table 1: centralized transfer grid (model).
// ---------------------------------------------------------------

func BenchmarkTable1Centralized(b *testing.B) {
	p := simnet.DefaultParams()
	for _, n := range perfmodel.GridN {
		for _, m := range perfmodel.GridM {
			n, m := n, m
			b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
				var last simnet.CentralizedBreakdown
				for i := 0; i < b.N; i++ {
					last = simnet.Centralized(p, n, m, perfmodel.ExperimentBytes)
				}
				paper := perfmodel.PaperTable1[perfmodel.Config{N: n, M: m}]
				b.ReportMetric(last.Total, "model_tc_ms")
				b.ReportMetric(paper.TC, "paper_tc_ms")
			})
		}
	}
}

// ---------------------------------------------------------------
// E2 — Table 2: multi-port transfer grid (model).
// ---------------------------------------------------------------

func BenchmarkTable2MultiPort(b *testing.B) {
	p := simnet.DefaultParams()
	for _, n := range perfmodel.GridN {
		for _, m := range perfmodel.GridM {
			n, m := n, m
			b.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(b *testing.B) {
				var last simnet.MultiPortBreakdown
				for i := 0; i < b.N; i++ {
					last = simnet.MultiPort(p, n, m, perfmodel.ExperimentBytes)
				}
				paper := perfmodel.PaperTable2[perfmodel.Config{N: n, M: m}]
				b.ReportMetric(last.Total, "model_tmp_ms")
				b.ReportMetric(paper.TMP, "paper_tmp_ms")
			})
		}
	}
}

// ---------------------------------------------------------------
// E3 — Figure 4: bandwidth vs sequence length (model).
// ---------------------------------------------------------------

func BenchmarkFigure4Bandwidth(b *testing.B) {
	p := simnet.DefaultParams()
	for _, L := range []int{1000, 10000, 1 << 16, 1 << 17, 1000000} {
		L := L
		b.Run(fmt.Sprintf("doubles=%d", L), func(b *testing.B) {
			var c, m float64
			for i := 0; i < b.N; i++ {
				c = simnet.Centralized(p, 4, 8, L*8).Total
				m = simnet.MultiPort(p, 4, 8, L*8).Total
			}
			b.ReportMetric(perfmodel.EffectiveBandwidth(L*8, c), "cent_bw")
			b.ReportMetric(perfmodel.EffectiveBandwidth(L*8, m), "mp_bw")
		})
	}
}

// ---------------------------------------------------------------
// E4 — §3.3 uneven split spot check (model).
// ---------------------------------------------------------------

func BenchmarkSpotUneven(b *testing.B) {
	p := simnet.DefaultParams()
	var model float64
	for i := 0; i < b.N; i++ {
		model, _ = perfmodel.SpotUneven(p)
	}
	b.ReportMetric(model, "model_ms")
	b.ReportMetric(perfmodel.PaperUnevenSpot, "paper_ms")
}

// ---------------------------------------------------------------
// E6 — real-stack transfer comparison (this machine).
// ---------------------------------------------------------------

// benchFixture boots an m-thread echo-style SPMD object over inproc
// transports and returns a per-iteration invoke function.
type benchFixture struct {
	dom   *core.Domain
	world *mp.World
	objs  []*core.Object
}

func startBenchObject(b *testing.B, m int) *benchFixture {
	b.Helper()
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	dom, err := core.JoinDomain(core.DomainConfig{Registry: reg, ListenEndpoint: "inproc:*"})
	if err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{dom: dom, world: mp.MustWorld(m)}
	var mu sync.Mutex
	ready := make(chan error, m)
	for r := 0; r < m; r++ {
		go func(rank int) {
			th := rts.NewMessagePassing(f.world.Rank(rank))
			obj, err := dom.Export(context.Background(), core.ExportConfig{
				Thread:    th,
				Name:      "bench",
				TypeID:    "IDL:bench:1.0",
				MultiPort: true,
				Ops: map[string]*core.Op{
					"touch": {
						Spec: core.OpSpec{Args: []core.ArgSpec{{Mode: core.InOut, Dist: dist.Block()}}},
						Handler: func(call *core.Call) error {
							local := call.Args[0].LocalData()
							if len(local) > 0 {
								local[0]++
							}
							return nil
						},
					},
				},
			})
			ready <- err
			if err != nil {
				return
			}
			mu.Lock()
			f.objs = append(f.objs, obj)
			mu.Unlock()
			_ = obj.Serve(context.Background())
		}(r)
	}
	for i := 0; i < m; i++ {
		if err := <-ready; err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		mu.Lock()
		for _, o := range f.objs {
			o.Close()
		}
		mu.Unlock()
		f.world.Close()
		f.dom.Close()
	})
	return f
}

func benchTransfer(b *testing.B, method core.TransferMethod, n, m, length int) {
	f := startBenchObject(b, m)
	b.SetBytes(int64(length * 8))
	b.ResetTimer()
	err := mp.Run(n, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		bind, err := f.dom.SPMDBind(context.Background(), th, "bench", method)
		if err != nil {
			return err
		}
		defer bind.Close()
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		spec := &core.CallSpec{
			Operation: "touch",
			Args:      []core.DistArg{{Mode: core.InOut, Seq: seq}},
		}
		// Warm-up connection establishment outside the measured loop
		// happened before ResetTimer is not possible inside mp.Run;
		// one warm call costs a single iteration's noise. InvokeAsync
		// keeps the binding's method at every size (Invoke would send a
		// multi-port binding's small rows centralized), so each row
		// measures the method it names.
		for i := 0; i < b.N; i++ {
			p, err := bind.InvokeAsync(context.Background(), spec)
			if err != nil {
				return err
			}
			if err := p.Wait(context.Background()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTransferCentralized(b *testing.B) {
	for _, L := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("doubles=%d", L), func(b *testing.B) {
			benchTransfer(b, core.Centralized, 4, 8, L)
		})
	}
}

func BenchmarkTransferMultiPort(b *testing.B) {
	for _, L := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("doubles=%d", L), func(b *testing.B) {
			benchTransfer(b, core.MultiPort, 4, 8, L)
		})
	}
}

// ---------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------

// Ablation 1 — header delivery: the paper routes multi-port headers
// centrally to avoid cross-client deadlock; a header-per-port design
// pays the invocation overhead per thread. Model-level comparison at
// small payloads where headers dominate.
func BenchmarkAblationHeaderDelivery(b *testing.B) {
	p := simnet.DefaultParams()
	const L = 1000 * 8
	b.Run("central-header", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			t = simnet.MultiPort(p, 4, 8, L).Total
		}
		b.ReportMetric(t, "ms")
	})
	b.Run("header-per-port", func(b *testing.B) {
		pp := p
		// Charge the per-request overhead once per server port
		// instead of once per invocation.
		pp.RequestOverhead = p.RequestOverhead * 8 / 2 // pipelined, ~half serialized
		var t float64
		for i := 0; i < b.N; i++ {
			t = simnet.MultiPort(pp, 4, 8, L).Total
		}
		b.ReportMetric(t, "ms")
	})
}

// Ablation 2 — eager vs rendezvous point-to-point sends in the
// message-passing runtime.
func BenchmarkAblationEagerRendezvous(b *testing.B) {
	const payload = 1 << 16
	for _, mode := range []mp.SendMode{mp.Eager, mp.Rendezvous} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(payload)
			err := mp.Run(2, func(proc *mp.Proc) error {
				data := make([]byte, payload)
				for i := 0; i < b.N; i++ {
					if proc.Rank() == 0 {
						if err := proc.Send(1, 0, data); err != nil {
							return err
						}
					} else {
						if _, _, err := proc.Recv(0, 0); err != nil {
							return err
						}
					}
				}
				return nil
			}, mp.WithSendMode(mode))
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// Ablation 3 — marshaling: bulk double-sequence encoding vs
// element-at-a-time encoding.
func BenchmarkAblationZeroCopy(b *testing.B) {
	data := make([]float64, 1<<15)
	for i := range data {
		data[i] = float64(i)
	}
	b.Run("bulk", func(b *testing.B) {
		b.SetBytes(int64(len(data) * 8))
		e := cdr.NewEncoder(cdr.BigEndian)
		for i := 0; i < b.N; i++ {
			e.Reset()
			e.PutDoubleSeq(data)
		}
	})
	b.Run("per-element", func(b *testing.B) {
		b.SetBytes(int64(len(data) * 8))
		e := cdr.NewEncoder(cdr.BigEndian)
		for i := 0; i < b.N; i++ {
			e.Reset()
			e.PutULong(uint32(len(data)))
			for _, v := range data {
				e.PutDouble(v)
			}
		}
	})
}

// Ablation 4 — RTS flavor: message-passing vs one-sided gather of a
// distributed sequence (the paper's future-work interface).
func BenchmarkAblationRTSFlavor(b *testing.B) {
	const threads = 4
	const length = 1 << 15
	counts := dist.Block().MustApply(length, threads).Counts()

	b.Run("message-passing", func(b *testing.B) {
		b.SetBytes(int64(length * 8))
		err := mp.Run(threads, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			local := make([]float64, counts[th.Rank()])
			for i := 0; i < b.N; i++ {
				if _, err := th.GatherDoubles(0, local, counts); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("one-sided", func(b *testing.B) {
		b.SetBytes(int64(length * 8))
		d := onesided.MustDomain(threads)
		defer d.Close()
		var wg sync.WaitGroup
		errs := make(chan error, threads)
		for r := 0; r < threads; r++ {
			wg.Add(1)
			go func(th rts.Thread) {
				defer wg.Done()
				local := make([]float64, counts[th.Rank()])
				for i := 0; i < b.N; i++ {
					if _, err := th.GatherDoubles(0, local, counts); err != nil {
						errs <- err
						return
					}
				}
			}(d.Thread(r))
		}
		wg.Wait()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
	})
}

// Ablation 5 — protocol chunk size in the testbed model (the
// granularity that trades rendezvous count against pipelining).
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, chunk := range []int{4096, 16384, 65536} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			p := simnet.DefaultParams()
			p.ChunkBytes = chunk
			var t float64
			for i := 0; i < b.N; i++ {
				t = simnet.MultiPort(p, 4, 8, perfmodel.ExperimentBytes).Total
			}
			b.ReportMetric(t, "model_ms")
		})
	}
}
