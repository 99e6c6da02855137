package rts_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pardis/internal/dist"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/rts/onesided"
)

// harness runs fn on every thread of a size-P section for each RTS
// flavor, so the same conformance suite exercises both adapters.
func harness(t *testing.T, size int, fn func(th rts.Thread) error) {
	t.Helper()
	t.Run("message-passing", func(t *testing.T) {
		err := mp.Run(size, func(p *mp.Proc) error {
			return fn(rts.NewMessagePassing(p))
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("one-sided", func(t *testing.T) {
		d := onesided.MustDomain(size)
		defer d.Close()
		var wg sync.WaitGroup
		errc := make(chan error, size)
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(th rts.Thread) {
				defer wg.Done()
				if err := fn(th); err != nil {
					errc <- err
					d.Close()
				}
			}(d.Thread(r))
		}
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	})
}

func TestRankSize(t *testing.T) {
	seen := make(map[string]map[int]bool)
	var mu sync.Mutex
	harness(t, 4, func(th rts.Thread) error {
		if th.Size() != 4 {
			return fmt.Errorf("size = %d", th.Size())
		}
		mu.Lock()
		key := fmt.Sprintf("%T", th)
		if seen[key] == nil {
			seen[key] = map[int]bool{}
		}
		if seen[key][th.Rank()] {
			mu.Unlock()
			return fmt.Errorf("duplicate rank %d", th.Rank())
		}
		seen[key][th.Rank()] = true
		mu.Unlock()
		return nil
	})
}

func TestBcast(t *testing.T) {
	harness(t, 3, func(th rts.Thread) error {
		var in []byte
		if th.Rank() == 1 {
			in = []byte("spmd header")
		}
		out, err := th.Bcast(1, in)
		if err != nil {
			return err
		}
		if string(out) != "spmd header" {
			return fmt.Errorf("rank %d: bcast = %q", th.Rank(), out)
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	counts := []int{4, 1, 0, 3}
	harness(t, 4, func(th rts.Thread) error {
		base := 0
		for r := 0; r < th.Rank(); r++ {
			base += counts[r]
		}
		local := make([]float64, counts[th.Rank()])
		for i := range local {
			local[i] = float64(base+i) * 1.5
		}
		g, err := th.GatherDoubles(0, local, counts)
		if err != nil {
			return err
		}
		if th.Rank() == 0 {
			if len(g) != 8 {
				return fmt.Errorf("gathered %d elements", len(g))
			}
			for i, v := range g {
				if v != float64(i)*1.5 {
					return fmt.Errorf("gathered[%d] = %v", i, v)
				}
			}
		}
		var data []float64
		if th.Rank() == 0 {
			data = g
		}
		s, err := th.ScatterDoubles(0, data, counts)
		if err != nil {
			return err
		}
		if len(s) != counts[th.Rank()] {
			return fmt.Errorf("scattered %d elements, want %d", len(s), counts[th.Rank()])
		}
		for i, v := range s {
			if v != float64(base+i)*1.5 {
				return fmt.Errorf("scattered[%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestAllgatherU64(t *testing.T) {
	harness(t, 5, func(th rts.Thread) error {
		got, err := th.AllgatherU64(uint64(th.Rank()+1) * 7)
		if err != nil {
			return err
		}
		if len(got) != 5 {
			return fmt.Errorf("len = %d", len(got))
		}
		for i, v := range got {
			if v != uint64(i+1)*7 {
				return fmt.Errorf("rank %d: got[%d] = %d", th.Rank(), i, v)
			}
		}
		return nil
	})
}

func TestBarrierSequence(t *testing.T) {
	// Repeated collectives must not interfere across epochs.
	harness(t, 3, func(th rts.Thread) error {
		for round := 0; round < 10; round++ {
			if err := th.Barrier(); err != nil {
				return err
			}
			got, err := th.AllgatherU64(uint64(round))
			if err != nil {
				return err
			}
			for _, v := range got {
				if v != uint64(round) {
					return fmt.Errorf("round %d saw value %d", round, v)
				}
			}
		}
		return nil
	})
}

func TestSingleThreadSection(t *testing.T) {
	harness(t, 1, func(th rts.Thread) error {
		if err := th.Barrier(); err != nil {
			return err
		}
		g, err := th.GatherDoubles(0, []float64{1, 2}, []int{2})
		if err != nil || len(g) != 2 {
			return fmt.Errorf("gather: %v %v", g, err)
		}
		s, err := th.ScatterDoubles(0, g, []int{2})
		if err != nil || len(s) != 2 || s[1] != 2 {
			return fmt.Errorf("scatter: %v %v", s, err)
		}
		return nil
	})
}

func TestSendRecvBytes(t *testing.T) {
	harness(t, 3, func(th rts.Thread) error {
		// Ring: each thread sends to (rank+1) mod 3, tagged by sender.
		next := (th.Rank() + 1) % 3
		prev := (th.Rank() + 2) % 3
		if err := th.SendBytes(next, th.Rank(), []byte{byte(th.Rank())}); err != nil {
			return err
		}
		b, err := th.RecvBytes(prev, prev)
		if err != nil {
			return err
		}
		if len(b) != 1 || b[0] != byte(prev) {
			return fmt.Errorf("rank %d got %v from %d", th.Rank(), b, prev)
		}
		return nil
	})
}

func TestSendRecvBytesFIFO(t *testing.T) {
	harness(t, 2, func(th rts.Thread) error {
		const N = 20
		if th.Rank() == 0 {
			for i := 0; i < N; i++ {
				if err := th.SendBytes(1, 9, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < N; i++ {
			b, err := th.RecvBytes(0, 9)
			if err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, b[0])
			}
		}
		return nil
	})
}

func TestMessagePassingExposesProc(t *testing.T) {
	w := mp.MustWorld(2)
	defer w.Close()
	m := rts.NewMessagePassing(w.Rank(1))
	if m.Proc() != w.Rank(1) {
		t.Fatal("Proc() does not return the wrapped rank")
	}
}

// TestWindowPutFence is the one-sided conformance test: every thread
// exposes a window expecting one put from each peer, scatters its
// block into every thread's window (including a self-put) at
// rank-derived offsets, and after the fence each window must hold the
// fully assembled vector. Both RTS flavors must satisfy it — the
// message-passing adapter through the buffered put queue, the
// one-sided domain through direct epoch copies.
func TestWindowPutFence(t *testing.T) {
	const blk = 8
	harness(t, 3, func(th rts.Thread) error {
		wt, ok := rts.AsWindowThread(th)
		if !ok {
			return fmt.Errorf("%T does not expose windows", th)
		}
		size, rank := th.Size(), th.Rank()
		window := make([]float64, size*blk)
		local := make([]float64, blk)
		for i := range local {
			local[i] = float64(rank*blk + i)
		}
		expect := make([]int, size)
		for i := range expect {
			if i != rank {
				expect[i] = 1
			}
		}
		w, err := wt.ExposeWindow(window, expect)
		if err != nil {
			return err
		}
		for dst := 0; dst < size; dst++ {
			if err := w.Put(dst, rank*blk, local); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		for i := range window {
			if window[i] != float64(i) {
				return fmt.Errorf("rank %d: window[%d] = %v", rank, i, window[i])
			}
		}
		return nil
	})
}

func TestWindowArgumentErrors(t *testing.T) {
	harness(t, 2, func(th rts.Thread) error {
		wt, ok := rts.AsWindowThread(th)
		if !ok {
			return fmt.Errorf("%T does not expose windows", th)
		}
		if _, err := wt.ExposeWindow(make([]float64, 4), []int{1}); err == nil {
			return fmt.Errorf("expectFrom of wrong length accepted")
		}
		// A clean epoch with no remote puts: a self-put beyond the
		// window must fail without poisoning the fence.
		w, err := wt.ExposeWindow(make([]float64, 4), make([]int, th.Size()))
		if err != nil {
			return err
		}
		if err := w.Put(th.Rank(), 3, []float64{1, 2}); err == nil {
			return fmt.Errorf("out-of-range self put accepted")
		}
		if err := w.Put(th.Rank(), 0, []float64{1}); err != nil {
			return err
		}
		return w.Fence()
	})
}

// TestLendDoubles is the by-reference gather's conformance test: over
// section sizes 1, 2 and 4, BLOCK and Proportions layouts, and lengths
// that leave ranks empty, root must receive every thread's block as an
// alias of that thread's own slice (lengths per the layout, contents
// intact, root's writes visible to the lender after the next
// collective) while non-roots receive nothing.
func TestLendDoubles(t *testing.T) {
	uneven, err := dist.Proportions(5, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 4} {
		specs := map[string]dist.Spec{"block": dist.Block()}
		if size == 4 {
			specs["proportions"] = uneven
		}
		for name, spec := range specs {
			for _, length := range []int{0, 1, size - 1, 37} {
				layout := spec.MustApply(length, size)
				root := size - 1
				t.Run(fmt.Sprintf("p%d/%s/len%d", size, name, length), func(t *testing.T) {
					harness(t, size, func(th rts.Thread) error {
						return lendRoundTrip(th, layout, root)
					})
				})
			}
		}
	}
}

func lendRoundTrip(th rts.Thread, layout dist.Layout, root int) error {
	rank := th.Rank()
	local := make([]float64, layout.Count(rank))
	for i := range local {
		local[i] = float64(layout.Lo(rank) + i)
	}
	blocks, err := th.LendDoubles(root, local, layout.Counts())
	if err != nil {
		return err
	}
	if rank != root {
		if blocks != nil {
			return fmt.Errorf("rank %d: non-root received blocks", rank)
		}
	} else {
		if len(blocks) != th.Size() {
			return fmt.Errorf("root received %d blocks for %d threads", len(blocks), th.Size())
		}
		for r, blk := range blocks {
			if len(blk) != layout.Count(r) {
				return fmt.Errorf("block %d has %d elements, layout says %d", r, len(blk), layout.Count(r))
			}
			for i := range blk {
				if blk[i] != float64(layout.Lo(r)+i) {
					return fmt.Errorf("block %d[%d] = %v", r, i, blk[i])
				}
				blk[i] = -blk[i] - 1
			}
		}
	}
	// The lend ends at the next collective root enters; the lender then
	// sees what root wrote through the alias.
	if err := th.Barrier(); err != nil {
		return err
	}
	for i, v := range local {
		if want := -float64(layout.Lo(rank)+i) - 1; v != want {
			return fmt.Errorf("rank %d: local[%d] = %v after root's write, want %v", rank, i, v, want)
		}
	}
	return nil
}

// TestLendDoublesBadArguments: a thread whose block disagrees with
// counts, or whose counts has the wrong shape, must fail the collective
// on every thread — none may be left blocked — and the section must
// stay usable for the next collective.
func TestLendDoublesBadArguments(t *testing.T) {
	const size = 4
	counts := []int{2, 0, 3, 1}
	cases := map[string]func(rank int) (local []float64, counts []int){
		"short block on one rank": func(rank int) ([]float64, []int) {
			n := counts[rank]
			if rank == 2 {
				n--
			}
			return make([]float64, n), counts
		},
		"short block on root": func(rank int) ([]float64, []int) {
			n := counts[rank]
			if rank == 0 {
				n--
			}
			return make([]float64, n), counts
		},
		"counts of wrong length on one rank": func(rank int) ([]float64, []int) {
			if rank == 3 {
				return make([]float64, counts[rank]), counts[:3]
			}
			return make([]float64, counts[rank]), counts
		},
		"counts of wrong length everywhere": func(rank int) ([]float64, []int) {
			return make([]float64, counts[rank]), counts[:2]
		},
	}
	flavors := map[string]func() ([]rts.Thread, func()){
		"message-passing": func() ([]rts.Thread, func()) {
			w := mp.MustWorld(size)
			ths := make([]rts.Thread, size)
			for r := range ths {
				ths[r] = rts.NewMessagePassing(w.Rank(r))
			}
			return ths, w.Close
		},
		"one-sided": func() ([]rts.Thread, func()) {
			d := onesided.MustDomain(size)
			ths := make([]rts.Thread, size)
			for r := range ths {
				ths[r] = d.Thread(r)
			}
			return ths, d.Close
		},
	}
	for name, args := range cases {
		for flavor, section := range flavors {
			t.Run(name+"/"+flavor, func(t *testing.T) {
				ths, closeSection := section()
				defer closeSection()
				errc := make(chan error, size)
				for _, th := range ths {
					go func(th rts.Thread) {
						local, c := args(th.Rank())
						if blocks, err := th.LendDoubles(0, local, c); err == nil {
							errc <- fmt.Errorf("rank %d: bad lend succeeded (%d blocks)", th.Rank(), len(blocks))
							return
						}
						errc <- lendRoundTrip(th, dist.Block().MustApply(9, size), 0)
					}(th)
				}
				deadline := time.After(10 * time.Second)
				for range ths {
					select {
					case err := <-errc:
						if err != nil {
							t.Error(err)
						}
					case <-deadline:
						t.Fatal("a thread is still blocked in the failed collective")
					}
				}
			})
		}
	}
}
