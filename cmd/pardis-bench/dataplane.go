// Data-plane benchmark mode: -dataplane drives the real SPMD stack
// in-process — an n-thread client streaming a block-distributed
// dsequence<double> into an m-thread multi-port object — and reports
// the Figure-4-style bandwidth curve (wall clock per in-transfer vs
// sequence length). The transfer knobs come from -xfer-window and
// -xfer-chunk, so A/B runs of the same binary isolate the data-plane
// configuration under test.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/spmd"
	"pardis/internal/transport"
	"pardis/internal/tune"
)

// dataplaneConfig carries the -dataplane flag group.
type dataplaneConfig struct {
	clientThreads int
	serverThreads int
	reps          int
	doubles       int // 0 = sweep the default length grid
	jsonOut       bool
	// tuneAB runs the grid twice — static knobs, then the self-tuning
	// transport (AutoTune 1 on the binding, converged during warm-up) —
	// so one invocation isolates the tuner's contribution.
	tuneAB bool
	// wanLatency > 0 routes the transfers through the fault-injection
	// transport with that much latency per dial and per delivered write
	// (and no fault probabilities): a deterministic WAN-path emulation,
	// where larger tuned chunks amortize the per-write cost and tuned
	// stripes overlap it across connections.
	wanLatency time.Duration
}

type dataplanePoint struct {
	Doubles   int     `json:"doubles"`
	Bytes     int     `json:"bytes"`
	Reps      int     `json:"reps"`
	SecPerOp  float64 `json:"seconds_per_op"`
	MBPerSec  float64 `json:"mb_per_sec"`
	AllocsTot uint64  `json:"-"`
}

// dataplaneResult reports the *resolved* data-plane configuration a
// pass actually ran with — what the zero-valued knobs meant in this
// process — not the raw flag values.
type dataplaneResult struct {
	Date          string           `json:"date"`
	Plane         string           `json:"plane,omitempty"`
	ClientThreads int              `json:"client_threads"`
	ServerThreads int              `json:"server_threads"`
	XferWindow    int              `json:"xfer_window"`
	XferChunk     int              `json:"xfer_chunk_bytes"`
	Stripes       int              `json:"stripes"`
	AutoTune      bool             `json:"auto_tune"`
	WANSeconds    float64          `json:"wan_latency_seconds,omitempty"`
	Points        []dataplanePoint `json:"points"`
	// Tune carries the per-endpoint tuner state after a tuned pass:
	// the converged estimates and the knobs the transfers resolved.
	Tune []tune.PathState `json:"tune,omitempty"`
}

var dataplaneLengths = []int{1 << 14, 1 << 17, 1 << 20}

func runDataplane(cfg dataplaneConfig) {
	lengths := dataplaneLengths
	if cfg.doubles > 0 {
		lengths = []int{cfg.doubles}
	}
	if cfg.reps <= 0 {
		cfg.reps = 5
	}

	reg := transport.NewRegistry()
	in := transport.NewInproc()
	reg.Register(in)
	listenAt := "inproc:*"
	if cfg.wanLatency > 0 {
		reg.Register(transport.NewFaulty(in, transport.FaultPlan{
			DialLatency:  cfg.wanLatency,
			WriteLatency: cfg.wanLatency,
		}))
		listenAt = "faulty+inproc:*"
	}

	ref, closeObj := startDataplaneObject(reg, cfg.serverThreads, listenAt)
	defer closeObj()

	// One pass per plane, all against the same server export. The
	// default single pass inherits the process-wide knobs; -tune runs a
	// static-vs-tuned pair (AutoTune forced off, then on, per binding).
	type pass struct {
		name     string
		tuneKnob int
		warmReps int // A/B warm-up invocations at the largest length
	}
	planes := []pass{{"", 0, 0}}
	if cfg.tuneAB {
		// The tuned pass warms longer: beyond heap and frame-pool fill,
		// its warm-up is what feeds the tuner past its MinSamples gate so
		// the measured reps run on converged knobs.
		planes = []pass{{"static", -1, 1}, {"tuned", 1, 8}}

		// Warm both planes at the largest length before any measured
		// pass: the first plane through the process otherwise pays the
		// heap growth and frame-pool fill for both, skewing the ratio.
		for _, plane := range planes {
			warm := cfg
			warm.reps = plane.warmReps
			if _, err := dataplaneOnePoint(reg, ref, warm, lengths[len(lengths)-1], plane.tuneKnob); err != nil {
				fatal(err)
			}
		}
	}

	var results []dataplaneResult
	for _, plane := range planes {
		tuned := plane.tuneKnob > 0 || (plane.tuneKnob == 0 && spmd.DefaultAutoTune)
		res := dataplaneResult{
			Date:          time.Now().UTC().Format("2006-01-02"),
			Plane:         plane.name,
			ClientThreads: cfg.clientThreads,
			ServerThreads: cfg.serverThreads,
			XferWindow:    spmd.ResolvedXferWindow(),
			XferChunk:     spmd.ResolvedXferChunkBytes(),
			Stripes:       orb.DefaultStripeWidth(),
			AutoTune:      tuned,
			WANSeconds:    cfg.wanLatency.Seconds(),
		}
		for _, length := range lengths {
			pt, err := dataplaneOnePoint(reg, ref, cfg, length, plane.tuneKnob)
			if err != nil {
				fatal(err)
			}
			res.Points = append(res.Points, pt)
		}
		if tuned {
			res.Tune = spmd.AutoTuner.Snapshot()
		}
		results = append(results, res)
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var v any = results[0]
		if len(results) > 1 {
			v = results
		}
		if err := enc.Encode(v); err != nil {
			fatal(err)
		}
		return
	}
	for _, res := range results {
		label := ""
		if res.Plane != "" {
			label = " plane=" + res.Plane
		}
		if res.WANSeconds > 0 {
			label += fmt.Sprintf(" wan=%.0fus", res.WANSeconds*1e6)
		}
		fmt.Printf("data plane%s: n=%d client threads -> m=%d server threads, window=%d chunk=%dB stripes=%d auto-tune=%v\n",
			label, res.ClientThreads, res.ServerThreads, res.XferWindow, res.XferChunk,
			res.Stripes, res.AutoTune)
		fmt.Printf("  %10s %12s %12s\n", "doubles", "ms/op", "MB/s")
		for _, pt := range res.Points {
			fmt.Printf("  %10d %12.3f %12.1f\n", pt.Doubles, pt.SecPerOp*1e3, pt.MBPerSec)
		}
		for _, st := range res.Tune {
			fmt.Printf("  tuned %s: bw=%.1f MB/s rtt=%.0fus chunk=%dB window=%d stripes=%d\n",
				st.Endpoint, st.BandwidthBps/1e6, st.RTTSeconds*1e6,
				st.Rec.XferChunkBytes, st.Rec.XferWindow, st.Rec.Stripes)
		}
	}
	if cfg.tuneAB {
		// The static baseline ran first: speedup = static/tuned.
		base, tuned := results[0], results[1]
		fmt.Printf("tuned vs static speedup:\n")
		for i, pt := range tuned.Points {
			fmt.Printf("  %10d %11.2fx\n", pt.Doubles, base.Points[i].SecPerOp/pt.SecPerOp)
		}
	}
}

// startDataplaneObject exports an m-thread multi-port object with a
// single "sink" op (one In distributed argument), so the invocation
// cost is the in-transfer itself.
func startDataplaneObject(reg *transport.Registry, m int, listenAt string) (*ior.Ref, func()) {
	w := mp.MustWorld(m)
	refs := make(chan *ior.Ref, 1)
	objs := make([]*spmd.Object, m)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th := rts.NewMessagePassing(w.Rank(rank))
			obj, err := spmd.Export(spmd.ObjectConfig{
				Thread:         th,
				Registry:       reg,
				ListenEndpoint: listenAt,
				Key:            "objects/dataplane",
				TypeID:         "IDL:dataplane_bench:1.0",
				MultiPort:      true,
				Ops: map[string]*spmd.Op{
					"sink": {
						Spec: spmd.OpSpec{Args: []spmd.ArgSpec{{Mode: spmd.In, Dist: dist.Block()}}},
						Handler: func(call *spmd.Call) error {
							call.Reply().PutLong(int32(len(call.Args[0].LocalData())))
							return nil
						},
					},
				},
			})
			if err != nil {
				fatal(err)
			}
			mu.Lock()
			objs[rank] = obj
			mu.Unlock()
			if rank == 0 {
				refs <- obj.Ref()
			}
			_ = obj.Serve(context.Background())
		}(r)
	}
	ref := <-refs
	return ref, func() {
		mu.Lock()
		for _, o := range objs {
			if o != nil {
				o.Close()
			}
		}
		mu.Unlock()
		wg.Wait()
		w.Close()
	}
}

func dataplaneOnePoint(reg *transport.Registry, ref *ior.Ref,
	cfg dataplaneConfig, length, autoTune int) (dataplanePoint, error) {
	var elapsed time.Duration
	err := mp.Run(cfg.clientThreads, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := spmd.Bind(context.Background(), spmd.BindConfig{
			Thread:         th,
			Registry:       reg,
			Method:         spmd.MultiPort,
			ListenEndpoint: "inproc:*",
			AutoTune:       autoTune,
		}, ref)
		if err != nil {
			return err
		}
		defer b.Close()
		seq, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		local := seq.LocalData()
		for i := range local {
			local[i] = float64(i)
		}
		// One warm-up invocation primes connections and frame pools.
		if err := dataplaneSink(b, seq); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < cfg.reps; i++ {
			if err := dataplaneSink(b, seq); err != nil {
				return err
			}
		}
		if th.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	})
	if err != nil {
		return dataplanePoint{}, err
	}
	secPerOp := elapsed.Seconds() / float64(cfg.reps)
	bytes := length * 8
	return dataplanePoint{
		Doubles:  length,
		Bytes:    bytes,
		Reps:     cfg.reps,
		SecPerOp: secPerOp,
		MBPerSec: float64(bytes) / secPerOp / 1e6,
	}, nil
}

func dataplaneSink(b *spmd.Binding, seq *dseq.Doubles) error {
	return b.Invoke(context.Background(), &spmd.CallSpec{
		Operation: "sink",
		Args:      []spmd.DistArg{{Mode: spmd.In, Seq: seq}},
	})
}
