// The diffusion example is the paper's §3 experiment run on the real
// PARDIS-Go stack over loopback TCP: an n-thread SPMD client invokes
// the diffusion service of an m-thread SPMD object with a distributed
// array of configurable size, through both argument-transfer methods,
// and reports wall-clock timings.
//
// Absolute numbers reflect this machine, not the paper's 1996 testbed
// (use `pardis-bench` for the calibrated reproduction of Tables 1-2);
// what should be visible here is the structural difference: the
// centralized method funnels all data through the communicators,
// while multi-port moves blocks directly between computing threads.
//
//	go run ./examples/diffusion -n 4 -m 8 -len 131072 -steps 1 -reps 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/telemetry"
)

// peerPuts counts the window puts the multi-port data plane shipped: a
// multi-port binding that ships none sent its invocations centralized.
var peerPuts = telemetry.Default.Counter("pardis_spmd_peer_blocks_total")

// servant scales every element; trivial compute so timing isolates
// argument transfer, like the paper's measurements.
type servant struct{}

func (servant) Diffusion(call *core.Call, timestep int32, myarray *dseq.Doubles) error {
	local := myarray.LocalData()
	for s := int32(0); s < timestep; s++ {
		for i := range local {
			local[i] *= 0.999
		}
	}
	return nil
}

func main() {
	n := flag.Int("n", 4, "client computing threads")
	m := flag.Int("m", 8, "server computing threads")
	length := flag.Int("len", 1<<17, "sequence length in doubles")
	steps := flag.Int("steps", 1, "diffusion timesteps per invocation")
	reps := flag.Int("reps", 5, "invocations to average per method")
	sweep := flag.Bool("sweep", false, "sweep sequence lengths like Figure 4 instead of a single size")
	flag.Parse()

	dom, err := core.JoinDomain(core.DomainConfig{ListenEndpoint: "tcp:127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer dom.Close()

	// Server: m computing threads over loopback TCP ports.
	serverWorld := mp.MustWorld(*m)
	defer serverWorld.Close()
	var objs []*core.Object
	var mu sync.Mutex
	ready := make(chan error, *m)
	for r := 0; r < *m; r++ {
		go func(rank int) {
			th := rts.NewMessagePassing(serverWorld.Rank(rank))
			obj, err := ExportDiffusionObject(context.Background(), dom, th,
				"diffusion-bench", true, servant{})
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
	for i := 0; i < *m; i++ {
		if err := <-ready; err != nil {
			log.Fatal(err)
		}
	}
	defer func() {
		mu.Lock()
		for _, o := range objs {
			o.Close()
		}
		mu.Unlock()
	}()

	if *sweep {
		// The Figure 4 sweep measured live on this machine: absolute
		// numbers are modern, the crossover shape is the paper's. Below
		// the crossover a multi-port binding sends its blocking
		// invocations centralized (DESIGN.md §10): its row then compares
		// the two bindings, not the two methods, and says so.
		fmt.Printf("figure-4-style sweep over TCP: n=%d, m=%d (this machine)\n", *n, *m)
		fmt.Printf("%12s  %14s  %14s  %8s\n", "doubles", "centralized", "multi-port", "ratio")
		for _, L := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 19} {
			var per [2]time.Duration
			var puts uint64
			for i, method := range []core.TransferMethod{core.Centralized, core.MultiPort} {
				before := peerPuts.Value()
				elapsed, err := run(dom, *n, L, int32(*steps), *reps, method)
				if err != nil {
					log.Fatalf("%v: %v", method, err)
				}
				per[i] = elapsed / time.Duration(*reps)
				puts = peerPuts.Value() - before
			}
			note := ""
			if puts == 0 {
				note = "  centralized by size"
			}
			fmt.Printf("%12d  %11.2f ms  %11.2f ms  %7.2fx%s\n",
				L, ms(per[0]), ms(per[1]), float64(per[0])/float64(per[1]), note)
		}
		return
	}

	fmt.Printf("diffusion over TCP: n=%d client threads, m=%d server threads, %d doubles (%.2f MiB)\n",
		*n, *m, *length, float64(*length)*8/(1<<20))

	for _, method := range []core.TransferMethod{core.Centralized, core.MultiPort} {
		elapsed, err := run(dom, *n, *length, int32(*steps), *reps, method)
		if err != nil {
			log.Fatalf("%v: %v", method, err)
		}
		per := elapsed / time.Duration(*reps)
		bw := 8 * float64(*length) * 8 / 1e6 / per.Seconds()
		fmt.Printf("  %-12s %8.2f ms/invocation  (%7.1f Mb/s effective)\n",
			method, float64(per.Microseconds())/1000, bw)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// run performs reps blocking invocations with the given method and
// returns the total elapsed time (measured on thread 0).
func run(dom *core.Domain, n, length int, steps int32, reps int, method core.TransferMethod) (time.Duration, error) {
	var elapsed time.Duration
	err := mp.Run(n, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		diff, err := BindDiffusionObject(context.Background(), dom, th, "diffusion-bench", method)
		if err != nil {
			return err
		}
		defer diff.Close()
		arr, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		for i := range arr.LocalData() {
			arr.LocalData()[i] = float64(arr.Lo() + i)
		}
		// Warm-up invocation establishes all connections.
		if err := diff.Diffusion(context.Background(), 0, arr); err != nil {
			return err
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := diff.Diffusion(context.Background(), steps, arr); err != nil {
				return err
			}
		}
		if th.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	})
	return elapsed, err
}
