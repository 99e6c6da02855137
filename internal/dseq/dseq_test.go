package dseq

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pardis/internal/dist"
	"pardis/internal/mp"
	"pardis/internal/rts"
)

func TestNewAllocatesBlocks(t *testing.T) {
	for rank := 0; rank < 3; rank++ {
		s, err := NewDoubles(10, dist.Block(), 3, rank)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{4, 3, 3}[rank]
		if s.LocalLen() != want || s.Len() != 10 || s.Rank() != rank {
			t.Fatalf("rank %d: local=%d len=%d", rank, s.LocalLen(), s.Len())
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := NewDoubles(10, dist.Block(), 3, 3); !errors.Is(err, ErrBounds) {
		t.Fatalf("rank out of range: %v", err)
	}
	if _, err := NewDoubles(-1, dist.Block(), 3, 0); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestFromLocal(t *testing.T) {
	layout := dist.Block().MustApply(10, 2)
	buf := []float64{1, 2, 3, 4, 5}
	s, err := DoublesFromLocal(layout, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	// The block is aliased, not copied (conversion constructor).
	s.LocalData()[0] = 42
	if buf[0] != 42 {
		t.Fatal("FromLocal must alias the caller's buffer")
	}
	if _, err := DoublesFromLocal(layout, 0, buf[:3]); !errors.Is(err, ErrMismatch) {
		t.Fatalf("short block: %v", err)
	}
	if _, err := DoublesFromLocal(layout, 7, buf); !errors.Is(err, ErrBounds) {
		t.Fatalf("bad rank: %v", err)
	}
}

func TestLocalIndex(t *testing.T) {
	layout := dist.Block().MustApply(10, 2)
	s, _ := DoublesFromLocal(layout, 1, make([]float64, 5))
	if _, ok := s.LocalIndex(2); ok {
		t.Fatal("index 2 is not local to rank 1")
	}
	off, ok := s.LocalIndex(7)
	if !ok || off != 2 {
		t.Fatalf("LocalIndex(7) = %d, %v", off, ok)
	}
	if s.Lo() != 5 {
		t.Fatalf("Lo = %d", s.Lo())
	}
}

func TestSetLengthShrinkGrow(t *testing.T) {
	s, _ := NewDoubles(10, dist.Block(), 2, 1) // rank 1 owns [5,10)
	for i := range s.LocalData() {
		s.LocalData()[i] = float64(i + 5)
	}
	if err := s.SetLength(7); err != nil { // rank 1 keeps [5,7)
		t.Fatal(err)
	}
	if s.LocalLen() != 2 || s.LocalData()[1] != 6 {
		t.Fatalf("after shrink: len=%d data=%v", s.LocalLen(), s.LocalData())
	}
	// Growth goes to the owner of the last element (rank 1).
	if err := s.SetLength(12); err != nil {
		t.Fatal(err)
	}
	if s.LocalLen() != 7 {
		t.Fatalf("after grow: len=%d", s.LocalLen())
	}
	if s.LocalData()[0] != 5 || s.LocalData()[1] != 6 || s.LocalData()[2] != 0 {
		t.Fatalf("grow corrupted data: %v", s.LocalData())
	}
	if err := s.SetLength(-1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestSetLengthGrowTakesOwnership(t *testing.T) {
	layout := dist.Block().MustApply(4, 2)
	buf := []float64{8, 9}
	s, _ := DoublesFromLocal(layout, 1, buf)
	if err := s.SetLength(8); err != nil {
		t.Fatal(err)
	}
	s.LocalData()[0] = 99
	if buf[0] == 99 {
		t.Fatal("grown block still aliases the user buffer")
	}
}

// runSPMD drives fn on p threads over the message-passing runtime.
func runSPMD(t *testing.T, p int, fn func(th rts.Thread) error) {
	t.Helper()
	t.Run("mp", func(t *testing.T) {
		err := mp.Run(p, func(proc *mp.Proc) error {
			return fn(rts.NewMessagePassing(proc))
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAtCollective(t *testing.T) {
	runSPMD(t, 3, func(th rts.Thread) error {
		s, err := NewDoubles(9, dist.Block(), 3, th.Rank())
		if err != nil {
			return err
		}
		for i := range s.LocalData() {
			s.LocalData()[i] = float64(s.Lo()+i) * 2
		}
		for g := 0; g < 9; g++ {
			v, err := s.At(th, g)
			if err != nil {
				return err
			}
			if v != float64(g)*2 {
				return fmt.Errorf("rank %d: At(%d) = %v", th.Rank(), g, v)
			}
		}
		_, err = s.At(th, 9)
		if !errors.Is(err, dist.ErrOutOfRange) {
			return fmt.Errorf("At(9): %v", err)
		}
		return nil
	})
}

func TestSetCollective(t *testing.T) {
	runSPMD(t, 2, func(th rts.Thread) error {
		s, err := NewDoubles(6, dist.Block(), 2, th.Rank())
		if err != nil {
			return err
		}
		if err := s.Set(th, 4, 7.5); err != nil {
			return err
		}
		v, err := s.At(th, 4)
		if err != nil {
			return err
		}
		if v != 7.5 {
			return fmt.Errorf("At after Set = %v", v)
		}
		return nil
	})
}

func TestRedistributeBlockToProportions(t *testing.T) {
	prop, _ := dist.Proportions(2, 4, 2, 4)
	runSPMD(t, 4, func(th rts.Thread) error {
		s, err := NewDoubles(24, dist.Block(), 4, th.Rank())
		if err != nil {
			return err
		}
		for i := range s.LocalData() {
			s.LocalData()[i] = float64(s.Lo() + i)
		}
		if err := s.Redistribute(th, prop.MustApply(24, 4)); err != nil {
			return err
		}
		// Contents must be preserved at the new offsets.
		for i, v := range s.LocalData() {
			if v != float64(s.Lo()+i) {
				return fmt.Errorf("rank %d: after redistribute [%d] = %v, want %v",
					th.Rank(), i, v, float64(s.Lo()+i))
			}
		}
		if s.LocalLen() != s.Layout().Count(th.Rank()) {
			return fmt.Errorf("local length mismatch")
		}
		return nil
	})
}

func TestRedistributeErrors(t *testing.T) {
	s, _ := NewDoubles(10, dist.Block(), 2, 0)
	w := mp.MustWorld(2)
	defer w.Close()
	th := rts.NewMessagePassing(w.Rank(0))
	if err := s.Redistribute(th, dist.Block().MustApply(11, 2)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("length mismatch: %v", err)
	}
	if err := s.Redistribute(th, dist.Block().MustApply(10, 3)); !errors.Is(err, ErrMismatch) {
		t.Fatalf("thread mismatch: %v", err)
	}
}

func TestGatherScatterDoubles(t *testing.T) {
	runSPMD(t, 3, func(th rts.Thread) error {
		s, err := NewDoubles(10, dist.Block(), 3, th.Rank())
		if err != nil {
			return err
		}
		for i := range s.LocalData() {
			s.LocalData()[i] = float64(s.Lo() + i)
		}
		full, err := GatherDoubles(s, th, 0)
		if err != nil {
			return err
		}
		if th.Rank() == 0 {
			for i, v := range full {
				if v != float64(i) {
					return fmt.Errorf("gathered[%d] = %v", i, v)
				}
			}
			for i := range full {
				full[i] *= 10
			}
		}
		if err := ScatterDoubles(s, th, 0, full); err != nil {
			return err
		}
		for i, v := range s.LocalData() {
			if v != float64(s.Lo()+i)*10 {
				return fmt.Errorf("scattered [%d] = %v", i, v)
			}
		}
		return nil
	})
}

func TestScatterSizeError(t *testing.T) {
	runSPMD(t, 2, func(th rts.Thread) error {
		s, err := NewDoubles(4, dist.Block(), 2, th.Rank())
		if err != nil {
			return err
		}
		if th.Rank() == 0 {
			err := ScatterDoubles(s, th, 0, []float64{1, 2, 3})
			if !errors.Is(err, ErrMismatch) {
				return fmt.Errorf("short scatter: %v", err)
			}
			return nil
		}
		return nil
	})
}

// Property: redistribution between random layouts is contents-
// preserving for random data.
func TestQuickRedistributePreservesContents(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(5)
		length := r.Intn(300)
		src := randomLayout(r, length, p)
		dst := randomLayout(r, length, p)
		data := make([]float64, length)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		ok := true
		err := mp.Run(p, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			local := make([]float64, src.Count(th.Rank()))
			copy(local, data[src.Lo(th.Rank()):src.Hi(th.Rank())])
			s, err := DoublesFromLocal(src, th.Rank(), local)
			if err != nil {
				return err
			}
			if err := s.Redistribute(th, dst); err != nil {
				return err
			}
			for i, v := range s.LocalData() {
				if v != data[dst.Lo(th.Rank())+i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomLayout(r *rand.Rand, length, p int) dist.Layout {
	if r.Intn(2) == 0 {
		return dist.Block().MustApply(length, p)
	}
	counts := make([]int, p)
	rem := length
	for i := 0; i < p-1; i++ {
		c := 0
		if rem > 0 {
			c = r.Intn(rem + 1)
		}
		counts[i] = c
		rem -= c
	}
	counts[p-1] = rem
	s, err := dist.Explicit(counts...)
	if err != nil {
		panic(err)
	}
	return s.MustApply(length, p)
}

// noWindow hides a thread's WindowThread capability, pinning
// Redistribute onto the tagged-send fallback path.
type noWindow struct{ rts.Thread }

// TestRedistributeWindowMatchesFallback redistributes the same
// sequence twice on the same threads — once with the one-sided window
// fast path, once with the capability hidden so the tagged-send
// fallback runs — and requires element-identical results. This is the
// equivalence bound that lets the window path replace the fallback
// without a semantic flag day.
func TestRedistributeWindowMatchesFallback(t *testing.T) {
	ex, err := dist.Explicit(9, 2, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	runSPMD(t, 4, func(th rts.Thread) error {
		if _, ok := rts.AsWindowThread(th); !ok {
			return fmt.Errorf("%T lost its window capability", th)
		}
		mk := func() (*Doubles, error) {
			s, err := NewDoubles(24, dist.Block(), 4, th.Rank())
			if err != nil {
				return nil, err
			}
			for i := range s.LocalData() {
				s.LocalData()[i] = float64(s.Lo()+i) * 1.5
			}
			return s, nil
		}
		win, err := mk()
		if err != nil {
			return err
		}
		fb, err := mk()
		if err != nil {
			return err
		}
		if err := win.Redistribute(th, ex.MustApply(24, 4)); err != nil {
			return err
		}
		if err := fb.Redistribute(noWindow{th}, ex.MustApply(24, 4)); err != nil {
			return err
		}
		if win.LocalLen() != fb.LocalLen() {
			return fmt.Errorf("rank %d: window path %d elements, fallback %d",
				th.Rank(), win.LocalLen(), fb.LocalLen())
		}
		for i := range win.LocalData() {
			if win.LocalData()[i] != fb.LocalData()[i] {
				return fmt.Errorf("rank %d: element %d differs: window %v, fallback %v",
					th.Rank(), i, win.LocalData()[i], fb.LocalData()[i])
			}
		}
		return nil
	})
}
