// The coupled example is the scenario the paper's introduction
// motivates: several parallel applications, each with its own
// computing resources, composed through the request broker. An ocean
// model runs as a 6-thread SPMD object and a statistics engine as a
// 3-thread SPMD object; a 2-thread SPMD client owns the distributed
// field and alternates between them.
//
// The same distributed sequence flows to objects with *different*
// thread counts and the broker re-blocks it each way from one
// block-intersection plan — no application code ever repartitions
// anything by hand, which is exactly the ad-hoc glue PARDIS set out
// to eliminate.
//
//	go run ./examples/coupled
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/mp"
	"pardis/internal/rts"
)

// oceanServant relaxes the field toward its neighbor average with a
// little forcing, locally per thread (a stand-in for the real model's
// physics).
type oceanServant struct{}

func (oceanServant) Step(call *core.Call, dt float64, state *dseq.Doubles) (float64, error) {
	local := state.LocalData()
	for i := 1; i+1 < len(local); i++ {
		local[i] += dt * (0.5*(local[i-1]+local[i+1]) - local[i])
	}
	// All threads must return the same scalar; derive it from the
	// call, not from local data.
	return dt, nil
}

// statsServant computes distributed moments using its own runtime for
// the reductions.
type statsServant struct{}

func (statsServant) Moments(call *core.Call, state *dseq.Doubles,
	mean, variance, minV, maxV *float64) error {
	sum, sumSq := 0.0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range state.LocalData() {
		sum += v
		sumSq += v * v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Each allgather's result is valid only until the next collective:
	// fold it before the next one.
	S, Q := 0.0, 0.0
	L, H := math.Inf(1), math.Inf(-1)
	for _, f := range []struct {
		v    float64
		fold func(float64)
	}{
		{sum, func(x float64) { S += x }},
		{sumSq, func(x float64) { Q += x }},
		{lo, func(x float64) { L = math.Min(L, x) }},
		{hi, func(x float64) { H = math.Max(H, x) }},
	} {
		all, err := call.Thread.AllgatherU64(math.Float64bits(f.v))
		if err != nil {
			return err
		}
		for _, b := range all {
			f.fold(math.Float64frombits(b))
		}
	}
	n := float64(state.Len())
	*mean = S / n
	*variance = Q/n - (S/n)*(S/n)
	*minV, *maxV = L, H
	return nil
}

// export runs an SPMD object on k threads and returns a stop func.
func export[S any](dom *core.Domain, k int, name string,
	exportFn func(ctx context.Context, dom *core.Domain, th rts.Thread, name string, mp bool, impl S) (*core.Object, error),
	impl S) (func(), error) {
	world := mp.MustWorld(k)
	var objs []*core.Object
	var mu sync.Mutex
	ready := make(chan error, k)
	for r := 0; r < k; r++ {
		go func(rank int) {
			th := rts.NewMessagePassing(world.Rank(rank))
			obj, err := exportFn(context.Background(), dom, th, name, true, impl)
			ready <- err
			if err != nil {
				return
			}
			mu.Lock()
			objs = append(objs, obj)
			mu.Unlock()
			_ = obj.Serve(context.Background())
		}(r)
	}
	for i := 0; i < k; i++ {
		if err := <-ready; err != nil {
			world.Close()
			return nil, err
		}
	}
	return func() {
		mu.Lock()
		for _, o := range objs {
			o.Close()
		}
		mu.Unlock()
		world.Close()
	}, nil
}

func main() {
	const (
		oceanThreads = 6
		statsThreads = 3
		clientW      = 2
		length       = 6000
		rounds       = 5
	)
	dom, err := core.JoinDomain(core.DomainConfig{ListenEndpoint: "tcp:127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer dom.Close()

	stopOcean, err := export(dom, oceanThreads, "ocean", ExportOceanModel, OceanModelServant(oceanServant{}))
	if err != nil {
		log.Fatal(err)
	}
	defer stopOcean()
	stopStats, err := export(dom, statsThreads, "stats", ExportStatsEngine, StatsEngineServant(statsServant{}))
	if err != nil {
		log.Fatal(err)
	}
	defer stopStats()
	fmt.Printf("domain: ocean_model on %d threads, stats_engine on %d threads\n",
		oceanThreads, statsThreads)

	err = mp.Run(clientW, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		ocean, err := BindOceanModel(context.Background(), dom, th, "ocean", core.MultiPort)
		if err != nil {
			return err
		}
		defer ocean.Close()
		stats, err := BindStatsEngine(context.Background(), dom, th, "stats", core.MultiPort)
		if err != nil {
			return err
		}
		defer stats.Close()

		state, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		state.FillIndexed(func(g int) float64 {
			return math.Sin(2 * math.Pi * float64(g) / float64(length))
		})

		prevVar := math.Inf(1)
		for r := 0; r < rounds; r++ {
			if _, err := ocean.Step(context.Background(), 0.5, state); err != nil {
				return err
			}
			var mean, variance, lo, hi float64
			if err := stats.Moments(context.Background(), state, &mean, &variance, &lo, &hi); err != nil {
				return err
			}
			if th.Rank() == 0 {
				fmt.Printf("round %d: mean %+.5f  var %.5f  range [%+.4f, %+.4f]\n",
					r, mean, variance, lo, hi)
			}
			if variance > prevVar+1e-9 {
				return fmt.Errorf("relaxation must not raise variance: %v -> %v", prevVar, variance)
			}
			prevVar = variance
		}
		if th.Rank() == 0 {
			o, s := ocean.Binding().Stats(), stats.Binding().Stats()
			fmt.Printf("thread 0 traffic: ocean %d inv / %d B out; stats %d inv / %d B out\n",
				o.Invocations, o.BytesOut, s.Invocations, s.BytesOut)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coupled: OK")
}
