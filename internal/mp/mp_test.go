package mp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPointToPoint(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 7, []byte("hello"))
		}
		b, st, err := p.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(b) != "hello" || st.Source != 0 || st.Tag != 7 {
			return fmt.Errorf("got %q %+v", b, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			data := []byte{1, 2, 3}
			if err := p.Send(1, 0, data); err != nil {
				return err
			}
			data[0] = 99 // must not affect receiver
			return nil
		}
		b, _, err := p.Recv(0, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, []byte{1, 2, 3}) {
			return fmt.Errorf("payload mutated: %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			if err := p.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return p.Send(1, 2, []byte("two"))
		}
		// Receive out of order by tag.
		b2, _, err := p.Recv(0, 2)
		if err != nil {
			return err
		}
		b1, _, err := p.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(b1) != "one" || string(b2) != "two" {
			return fmt.Errorf("tag matching broken: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertaking(t *testing.T) {
	// Messages with the same (src, tag) must arrive in send order.
	const N = 50
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < N; i++ {
				if err := p.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < N; i++ {
			b, _, err := p.Recv(0, 5)
			if err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcards(t *testing.T) {
	err := Run(3, func(p *Proc) error {
		if p.Rank() != 0 {
			return p.Send(0, p.Rank(), []byte{byte(p.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			b, st, err := p.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(b[0]) != st.Source || st.Tag != st.Source {
				return fmt.Errorf("bad status %+v for %v", st, b)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing sources: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestF64RoundTrip(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.sendF64(1, 3, []float64{1.5, 2.5, -3.25})
		}
		f, _, err := p.RecvF64(0, 3)
		if err != nil {
			return err
		}
		if len(f) != 3 || f[0] != 1.5 || f[2] != -3.25 {
			return fmt.Errorf("f64 payload %v", f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypeMismatch(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.sendF64(1, 0, []float64{1})
		}
		_, _, err := p.Recv(0, 0)
		if !errors.Is(err, ErrTypeMism) {
			return fmt.Errorf("want ErrTypeMism, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadArguments(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	p := w.Rank(0)
	if err := p.Send(5, 0, nil); !errors.Is(err, ErrBadRank) {
		t.Fatalf("bad dst: %v", err)
	}
	if err := p.Send(1, -3, nil); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad tag: %v", err)
	}
	if _, err := p.Bcast(9, nil); !errors.Is(err, ErrBadRank) {
		t.Fatalf("bad root: %v", err)
	}
	if _, err := NewWorld(0); !errors.Is(err, ErrBadRank) {
		t.Fatalf("bad size: %v", err)
	}
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		var mu sync.Mutex
		phase := make(map[int]int)
		err := Run(size, func(p *Proc) error {
			for round := 0; round < 3; round++ {
				mu.Lock()
				phase[p.Rank()] = round
				// Every rank still in this round or the previous
				// barrier exit; never two rounds ahead.
				for r, ph := range phase {
					if ph > round+1 || ph < round-1 {
						mu.Unlock()
						return fmt.Errorf("rank %d at phase %d while rank %d at %d", r, ph, p.Rank(), round)
					}
				}
				mu.Unlock()
				if err := p.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestBarrierActuallyWaits(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	done := make(chan struct{})
	go func() {
		_ = w.Rank(0).Barrier()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("barrier released with a missing rank")
	case <-time.After(20 * time.Millisecond):
	}
	go func() { _ = w.Rank(1).Barrier() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("barrier never released")
	}
}

func TestBcast(t *testing.T) {
	for _, root := range []int{0, 2} {
		err := Run(4, func(p *Proc) error {
			var in []byte
			if p.Rank() == root {
				in = []byte("payload")
			}
			out, err := p.Bcast(root, in)
			if err != nil {
				return err
			}
			if string(out) != "payload" {
				return fmt.Errorf("rank %d got %q", p.Rank(), out)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestGatherVScatterV(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	total := 10
	err := Run(4, func(p *Proc) error {
		local := make([]float64, counts[p.Rank()])
		base := 0
		for r := 0; r < p.Rank(); r++ {
			base += counts[r]
		}
		for i := range local {
			local[i] = float64(base + i)
		}
		g, err := p.GatherV(0, local, counts)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if len(g) != total {
				return fmt.Errorf("gathered %d", len(g))
			}
			for i, v := range g {
				if v != float64(i) {
					return fmt.Errorf("gathered[%d] = %v", i, v)
				}
			}
		} else if g != nil {
			return fmt.Errorf("non-root got gather result")
		}
		// Scatter back and verify each rank recovers its block.
		var data []float64
		if p.Rank() == 0 {
			data = g
		}
		s, err := p.ScatterV(0, data, counts)
		if err != nil {
			return err
		}
		if len(s) != counts[p.Rank()] {
			return fmt.Errorf("scatter size %d", len(s))
		}
		for i, v := range s {
			if v != float64(base+i) {
				return fmt.Errorf("scatter[%d] = %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherVErrors(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.GatherV(0, []float64{1}, []int{2, 0})
			if err == nil {
				return fmt.Errorf("size mismatch accepted")
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherU64(t *testing.T) {
	err := Run(5, func(p *Proc) error {
		got, err := p.AllgatherU64(uint64(p.Rank() * 100))
		if err != nil {
			return err
		}
		for i, v := range got {
			if v != uint64(i*100) {
				return fmt.Errorf("rank %d: allgather[%d] = %d", p.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	w := MustWorld(2)
	done := make(chan error, 1)
	go func() {
		_, _, err := w.Rank(0).Recv(1, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver never unblocked")
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(3, func(p *Proc) error {
		if p.Rank() == 1 {
			return sentinel
		}
		// Other ranks block; Close must release them.
		_, _, err := p.Recv(AnySource, AnyTag)
		if errors.Is(err, ErrClosed) {
			return nil
		}
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// Property: GatherV(ScatterV(x)) == x for random data and counts.
func TestQuickScatterGatherInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Intn(6)
		counts := make([]int, size)
		total := 0
		for i := range counts {
			counts[i] = r.Intn(50)
			total += counts[i]
		}
		data := make([]float64, total)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		var back []float64
		err := Run(size, func(p *Proc) error {
			var in []float64
			if p.Rank() == 0 {
				in = data
			}
			blk, err := p.ScatterV(0, in, counts)
			if err != nil {
				return err
			}
			out, err := p.GatherV(0, blk, counts)
			if err != nil {
				return err
			}
			if p.Rank() == 0 {
				back = out
			}
			return nil
		})
		if err != nil || len(back) != total {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllgatherU64 is consistent across all ranks for random
// world sizes and values.
func TestQuickAllgatherConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Intn(7)
		vals := make([]uint64, size)
		for i := range vals {
			vals[i] = r.Uint64()
		}
		var mu sync.Mutex
		results := make([][]uint64, size)
		err := Run(size, func(p *Proc) error {
			got, err := p.AllgatherU64(vals[p.Rank()])
			if err != nil {
				return err
			}
			mu.Lock()
			results[p.Rank()] = got
			mu.Unlock()
			return nil
		})
		if err != nil {
			return false
		}
		for _, res := range results {
			for i, v := range res {
				if v != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPutFenceLandsAtOffsets drives the one-sided fallback primitive
// directly: every rank puts its block into every other rank's window
// at a rank-derived offset, and after FenceF64 each window holds the
// full assembled vector.
func TestPutFenceLandsAtOffsets(t *testing.T) {
	const ranks, blk = 4, 8
	err := Run(ranks, func(p *Proc) error {
		window := make([]float64, ranks*blk)
		local := make([]float64, blk)
		for i := range local {
			local[i] = float64(p.Rank()*blk + i)
		}
		for dst := 0; dst < ranks; dst++ {
			if dst == p.Rank() {
				copy(window[p.Rank()*blk:], local)
				continue
			}
			if err := p.PutF64(dst, p.Rank()*blk, local); err != nil {
				return err
			}
		}
		expect := make([]int, ranks)
		for i := range expect {
			expect[i] = 1
		}
		if err := p.FenceF64(window, expect); err != nil {
			return err
		}
		for i := range window {
			if window[i] != float64(i) {
				return fmt.Errorf("rank %d: window[%d] = %v", p.Rank(), i, window[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFencePutBoundsChecked(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			// Lands beyond rank 1's 4-element window.
			return p.PutF64(1, 2, []float64{1, 2, 3})
		}
		err := p.FenceF64(make([]float64, 4), []int{1, 0})
		if err == nil {
			return fmt.Errorf("out-of-range put accepted")
		}
		return nil
	})
	// Rank 0 only puts (puts are buffered and never synchronize), and
	// rank 1 fails out of the fence before its closing barrier — so
	// neither rank blocks and Run surfaces only unexpected errors.
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutFenceArgumentErrors(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if err := p.PutF64(0, -1, nil); err == nil && p.Rank() == 1 {
			return fmt.Errorf("negative offset accepted")
		}
		if err := p.FenceF64(nil, []int{1}); err == nil {
			return fmt.Errorf("short expectFrom accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLendVAliasesBlocks: root receives aliases of the lenders' own
// slices — not copies — and a lender's bad block fails every rank
// instead of blocking root.
func TestLendVAliasesBlocks(t *testing.T) {
	counts := []int{2, 0, 3}
	err := Run(3, func(p *Proc) error {
		local := make([]float64, counts[p.Rank()])
		blocks, err := p.LendV(1, local, counts)
		if err != nil {
			return err
		}
		if p.Rank() == 1 {
			for r, blk := range blocks {
				if len(blk) != counts[r] {
					return fmt.Errorf("block %d has %d elements", r, len(blk))
				}
				for i := range blk {
					blk[i] = float64(10*r + i)
				}
			}
		} else if blocks != nil {
			return fmt.Errorf("non-root got blocks")
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		for i, v := range local {
			if v != float64(10*p.Rank()+i) {
				return fmt.Errorf("rank %d local[%d] = %v: root wrote to a copy", p.Rank(), i, v)
			}
		}
		if p.Rank() == 2 {
			local = local[:1]
		}
		if _, err := p.LendV(1, local, counts); err == nil {
			return fmt.Errorf("rank %d accepted a short block on rank 2", p.Rank())
		}
		return p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
