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

var modes = []SendMode{Eager, Rendezvous}

func TestPointToPoint(t *testing.T) {
	for _, mode := range modes {
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
		}, WithSendMode(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
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

func TestRendezvousBlocksUntilRecv(t *testing.T) {
	w := MustWorld(2, WithSendMode(Rendezvous))
	defer w.Close()
	sent := make(chan struct{})
	go func() {
		_ = w.Rank(0).Send(1, 0, []byte("x"))
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("rendezvous send completed before receive")
	case <-time.After(20 * time.Millisecond):
	}
	if _, _, err := w.Rank(1).Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sent:
	case <-time.After(time.Second):
		t.Fatal("rendezvous send never completed")
	}
}

func TestF64RoundTrip(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.SendF64(1, 3, []float64{1.5, 2.5, -3.25})
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
			return p.SendF64(1, 0, []float64{1})
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

func TestReduceSum(t *testing.T) {
	err := Run(4, func(p *Proc) error {
		s, err := p.ReduceSum(0, float64(p.Rank()+1))
		if err != nil {
			return err
		}
		if p.Rank() == 0 && s != 10 {
			return fmt.Errorf("sum = %v", s)
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

func TestCloseUnblocksRendezvousSender(t *testing.T) {
	w := MustWorld(2, WithSendMode(Rendezvous))
	done := make(chan error, 1)
	go func() {
		done <- w.Rank(0).Send(1, 0, []byte("x"))
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("sender never unblocked")
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

func TestProbeDoesNotConsume(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 4, []byte("probe-me"))
		}
		st, err := p.Probe(0, 4)
		if err != nil || st.Source != 0 || st.Tag != 4 {
			return fmt.Errorf("probe: %+v %v", st, err)
		}
		// The message is still there.
		b, _, err := p.Recv(0, 4)
		if err != nil || string(b) != "probe-me" {
			return fmt.Errorf("recv after probe: %q %v", b, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	w := MustWorld(2)
	defer w.Close()
	p1 := w.Rank(1)
	// Nothing queued: ok=false immediately.
	if _, _, ok, err := p1.TryRecv(0, 3); ok || err != nil {
		t.Fatalf("empty TryRecv: %v %v", ok, err)
	}
	if err := w.Rank(0).Send(1, 3, []byte{7}); err != nil {
		t.Fatal(err)
	}
	b, st, ok, err := p1.TryRecv(0, 3)
	if err != nil || !ok || b[0] != 7 || st.Source != 0 {
		t.Fatalf("TryRecv: %v %v %v %v", b, st, ok, err)
	}
	// Consumed.
	if _, _, ok, _ := p1.TryRecv(0, 3); ok {
		t.Fatal("message not consumed")
	}
}

func TestTryRecvUnblocksRendezvousSender(t *testing.T) {
	w := MustWorld(2, WithSendMode(Rendezvous))
	defer w.Close()
	done := make(chan error, 1)
	go func() { done <- w.Rank(0).Send(1, 0, []byte("x")) }()
	deadline := time.After(2 * time.Second)
	for {
		if _, _, ok, err := w.Rank(1).TryRecv(0, 0); err != nil {
			t.Fatal(err)
		} else if ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("message never arrived")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rendezvous sender not released by TryRecv")
	}
}

// TestSendOwnedTransfersOwnership pins the ownership contract that
// separates SendOwned from Send: the receiver gets the sender's backing
// array, not a copy. The receiver writes through the received slice,
// and after a barrier (which orders the write before the read) the
// sender observes the write through its original slice. The same
// experiment through Send must leave the original untouched. Run under
// -race, this also proves the handoff itself is properly synchronized.
func TestSendOwnedTransfersOwnership(t *testing.T) {
	for _, owned := range []bool{true, false} {
		payload := make([]byte, 3)
		err := Run(2, func(p *Proc) error {
			if p.Rank() == 0 {
				copy(payload, []byte{1, 2, 3})
				var err error
				if owned {
					err = p.SendOwned(1, 0, payload)
				} else {
					err = p.Send(1, 0, payload)
				}
				if err != nil {
					return err
				}
				if err := p.Barrier(); err != nil {
					return err
				}
				if owned && payload[0] != 99 {
					return fmt.Errorf("SendOwned copied: receiver write not visible, got %v", payload)
				}
				if !owned && payload[0] != 1 {
					return fmt.Errorf("Send aliased: receiver write visible, got %v", payload)
				}
				return nil
			}
			b, _, err := p.Recv(0, 0)
			if err != nil {
				return err
			}
			b[0] = 99
			return p.Barrier()
		})
		if err != nil {
			t.Fatalf("owned=%v: %v", owned, err)
		}
	}
}

func TestSendF64OwnedDelivers(t *testing.T) {
	err := Run(2, func(p *Proc) error {
		if p.Rank() == 0 {
			return p.SendF64Owned(1, 5, []float64{2.5, -1, 8})
		}
		f, st, err := p.RecvF64(0, 5)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 5 || len(f) != 3 || f[0] != 2.5 || f[2] != 8 {
			return fmt.Errorf("got %v %+v", f, st)
		}
		return nil
	})
	if err != nil {
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

// TestLendVBothSendModes: root receives aliases of the lenders' own
// slices — not copies — under eager and rendezvous sends alike, and a
// lender's bad block fails every rank instead of blocking root.
func TestLendVBothSendModes(t *testing.T) {
	counts := []int{2, 0, 3}
	for _, mode := range []SendMode{Eager, Rendezvous} {
		err := Run(3, func(p *Proc) error {
			local := make([]float64, counts[p.Rank()])
			blocks, err := p.LendV(1, local, counts)
			if err != nil {
				return err
			}
			if p.Rank() == 1 {
				for r, blk := range blocks {
					if len(blk) != counts[r] {
						return fmt.Errorf("%v: block %d has %d elements", mode, r, len(blk))
					}
					for i := range blk {
						blk[i] = float64(10*r + i)
					}
				}
			} else if blocks != nil {
				return fmt.Errorf("%v: non-root got blocks", mode)
			}
			if err := p.Barrier(); err != nil {
				return err
			}
			for i, v := range local {
				if v != float64(10*p.Rank()+i) {
					return fmt.Errorf("%v: rank %d local[%d] = %v: root wrote to a copy", mode, p.Rank(), i, v)
				}
			}
			if p.Rank() == 2 {
				local = local[:1]
			}
			if _, err := p.LendV(1, local, counts); err == nil {
				return fmt.Errorf("%v: rank %d accepted a short block on rank 2", mode, p.Rank())
			}
			return p.Barrier()
		}, WithSendMode(mode))
		if err != nil {
			t.Fatal(err)
		}
	}
}
