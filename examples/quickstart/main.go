// The quickstart reproduces the paper's §2.1 scenario end to end in
// one process: application A is an SPMD object computing "diffusion"
// on a distributed array; application B is a parallel SPMD client
// that binds to A by name (_spmd_bind) and invokes the service on
// data it owns, distributed across its own computing threads.
//
// The stubs and skeletons come from the IDL compiler:
//
//	go run ./cmd/pardisc -pkg main -o examples/quickstart/diffusion_gen.go examples/quickstart/diffusion.idl
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// diffusionServant implements the generated DiffusionObjectServant on
// every computing thread of the server: an explicit 1D diffusion
// stencil over the thread's local block, with halo exchange through
// the RTS (the server's own runtime, invisible to the broker).
type diffusionServant struct{}

func (diffusionServant) Diffusion(call *core.Call, timestep int32, myarray *dseq.Doubles) error {
	th := call.Thread
	local := myarray.LocalData()
	const alpha = 0.25
	buf := make([]float64, len(local))
	for step := int32(0); step < timestep; step++ {
		leftHalo, rightHalo, err := exchangeHalos(th, local)
		if err != nil {
			return err
		}
		for i := range local {
			l := leftHalo
			if i > 0 {
				l = local[i-1]
			}
			r := rightHalo
			if i < len(local)-1 {
				r = local[i+1]
			}
			buf[i] = local[i] + alpha*(l-2*local[i]+r)
		}
		copy(local, buf)
	}
	return nil
}

// exchangeHalos trades boundary elements with neighbor threads; the
// domain boundary reflects (zero-flux).
func exchangeHalos(th rts.Thread, local []float64) (left, right float64, err error) {
	rank, size := th.Rank(), th.Size()
	const tag = 77
	var lo, hi float64
	if len(local) > 0 {
		lo, hi = local[0], local[len(local)-1]
	}
	if rank > 0 {
		if err := th.SendBytes(rank-1, tag, f64bytes(lo)); err != nil {
			return 0, 0, err
		}
	}
	if rank < size-1 {
		if err := th.SendBytes(rank+1, tag, f64bytes(hi)); err != nil {
			return 0, 0, err
		}
	}
	left, right = lo, hi // reflective boundary by default
	if rank > 0 {
		b, err := th.RecvBytes(rank-1, tag)
		if err != nil {
			return 0, 0, err
		}
		left = f64from(b)
	}
	if rank < size-1 {
		b, err := th.RecvBytes(rank+1, tag)
		if err != nil {
			return 0, 0, err
		}
		right = f64from(b)
	}
	return left, right, nil
}

func f64bytes(v float64) []byte {
	bits := mathFloat64bits(v)
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(bits >> (56 - 8*i))
	}
	return out
}

func f64from(b []byte) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(b[i])
	}
	return mathFloat64frombits(bits)
}

func main() {
	const (
		serverThreads = 4 // m: application A's computing threads
		clientThreads = 2 // n: application B's computing threads
		length        = 1024
		timesteps     = 50
	)

	// A PARDIS domain confined to this process.
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	dom, err := core.JoinDomain(core.DomainConfig{Registry: reg, ListenEndpoint: "inproc:*"})
	if err != nil {
		log.Fatal(err)
	}
	defer dom.Close()

	// ---- application A: the SPMD object ----
	serverWorld := mp.MustWorld(serverThreads)
	defer serverWorld.Close()
	var objs []*core.Object
	var objMu sync.Mutex
	ready := make(chan error, serverThreads)
	for r := 0; r < serverThreads; r++ {
		go func(rank int) {
			th := rts.NewMessagePassing(serverWorld.Rank(rank))
			obj, err := ExportDiffusionObject(context.Background(), dom, th,
				"example", true /* multi-port */, diffusionServant{})
			ready <- err
			if err != nil {
				return
			}
			objMu.Lock()
			objs = append(objs, obj)
			objMu.Unlock()
			_ = obj.Serve(context.Background())
		}(r)
	}
	for i := 0; i < serverThreads; i++ {
		if err := <-ready; err != nil {
			log.Fatal(err)
		}
	}
	defer func() {
		objMu.Lock()
		for _, o := range objs {
			o.Close()
		}
		objMu.Unlock()
	}()
	fmt.Printf("application A: diffusion_object exported as %q with %d computing threads\n",
		"example", serverThreads)

	// ---- application B: the SPMD client ----
	err = mp.Run(clientThreads, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)

		// diff = diffusion_object::_spmd_bind("example", ...)
		diff, err := BindDiffusionObject(context.Background(), dom, th, "example", core.MultiPort)
		if err != nil {
			return err
		}
		defer diff.Close()

		// B's distributed array: a step function.
		arr, err := dseq.NewDoubles(length, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		for i := range arr.LocalData() {
			if g := arr.Lo() + i; g >= length/4 && g < 3*length/4 {
				arr.LocalData()[i] = 100
			}
		}
		before := localSum(arr)

		// diff->diffusion(my_number_of_timesteps, diff_array)
		if err := diff.Diffusion(context.Background(), timesteps, arr); err != nil {
			return err
		}

		after := localSum(arr)
		// An allgather's result is valid only until the next collective.
		sb, sa := 0.0, 0.0
		totBefore, err := th.AllgatherU64(mathFloat64bits(before))
		if err != nil {
			return err
		}
		for _, v := range totBefore {
			sb += mathFloat64frombits(v)
		}
		totAfter, err := th.AllgatherU64(mathFloat64bits(after))
		if err != nil {
			return err
		}
		for _, v := range totAfter {
			sa += mathFloat64frombits(v)
		}
		if th.Rank() == 0 {
			fmt.Printf("application B: diffusion of %d steps on %d doubles across %d client threads\n",
				timesteps, length, clientThreads)
			fmt.Printf("  heat before %.1f, after %.1f (conserved: %v)\n",
				sb, sa, abs(sb-sa) < 1e-6*sb)
			mid, err := peek(arr, th, length/2)
			if err != nil {
				return err
			}
			edge, err2 := peek(arr, th, 0)
			if err2 != nil {
				return err2
			}
			fmt.Printf("  profile: edge %.3f < middle %.3f (diffused: %v)\n",
				edge, mid, edge < mid)
		} else {
			// Collective At() below requires all threads.
			if _, err := peek(arr, th, length/2); err != nil {
				return err
			}
			if _, err := peek(arr, th, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("quickstart: OK")
}

// peek reads one element collectively (location-transparent access).
func peek(arr *dseq.Doubles, th rts.Thread, i int) (float64, error) {
	return arr.At(th, i)
}

func localSum(arr *dseq.Doubles) float64 {
	s := 0.0
	for _, v := range arr.LocalData() {
		s += v
	}
	return s
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
