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
		_, _, err := p.Recv(1, 0)
		if errors.Is(err, ErrClosed) {
			return nil
		}
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
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

// TestBcastVHandsOutBlocks: every rank receives root's payload and the
// blocks root keeps for it, aliased, not copied: what a rank writes
// through them is what root reads after the next collective. A nil table
// hands out nothing, and a table of the wrong shape fails every rank.
func TestBcastVHandsOutBlocks(t *testing.T) {
	const size = 3
	table := make([][][]float64, size)
	for r := range table {
		table[r] = [][]float64{make([]float64, r+1), make([]float64, 2)}
	}
	ctrl := []byte("ctrl")
	err := Run(size, func(p *Proc) error {
		var data [][][]float64
		if p.Rank() == 1 {
			data = table
		}
		payload, mine, err := p.BcastV(1, ctrl, data)
		if err != nil {
			return err
		}
		if string(payload) != "ctrl" || &payload[0] != &ctrl[0] {
			return fmt.Errorf("rank %d: payload %q is not root's", p.Rank(), payload)
		}
		if len(mine) != 2 || len(mine[0]) != p.Rank()+1 {
			return fmt.Errorf("rank %d: handed %d blocks", p.Rank(), len(mine))
		}
		for _, blk := range mine {
			for i := range blk {
				blk[i] = float64(10*p.Rank() + i)
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			for r := range table {
				for k, blk := range table[r] {
					for i, v := range blk {
						if v != float64(10*r+i) {
							return fmt.Errorf("table[%d][%d][%d] = %v: rank %d wrote to a copy", r, k, i, v, r)
						}
					}
				}
			}
		}
		if _, mine, err := p.BcastV(1, nil, nil); err != nil || mine != nil {
			return fmt.Errorf("rank %d: nil table handed %v, %v", p.Rank(), mine, err)
		}
		if p.Rank() == 1 {
			data = table[:2]
		}
		if _, _, err := p.BcastV(1, nil, data); err == nil {
			return fmt.Errorf("rank %d accepted a table of 2 entries for 3 ranks", p.Rank())
		}
		return p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAgreeLendVChecksWordsFirst: ranks that pass root's word lend to
// root and every rank returns root's value; a rank whose word differs
// fails the round on every rank with a Disagreement naming the lowest
// such rank, even when the ranks also lend different shapes, and the
// world stays usable. A round may lend nothing.
func TestAgreeLendVChecksWordsFirst(t *testing.T) {
	counts := []int{2, 0, 3}
	err := Run(3, func(p *Proc) error {
		local := make([]float64, counts[p.Rank()])
		for i := range local {
			local[i] = float64(10*p.Rank() + i)
		}
		blocks, val, err := p.AgreeLendV(0, 7, uint64(100+p.Rank()), local, counts)
		if err != nil {
			return err
		}
		if val != 100 {
			return fmt.Errorf("rank %d: val %d, want root's 100", p.Rank(), val)
		}
		if p.Rank() == 0 {
			for r, blk := range blocks {
				if len(blk) != counts[r] || (len(blk) > 0 && blk[0] != float64(10*r)) {
					return fmt.Errorf("root got block %d = %v", r, blk)
				}
			}
		} else if blocks != nil {
			return fmt.Errorf("rank %d: non-root got blocks", p.Rank())
		}
		if blocks, val, err := p.AgreeLendV(0, 7, 5, nil, nil); err != nil || blocks != nil || val != 5 {
			return fmt.Errorf("rank %d: lending nothing returned %v, %d, %v", p.Rank(), blocks, val, err)
		}
		// Ranks 1 and 2 disagree, and rank 2 lends a block root's counts
		// do not expect: the words are checked first.
		word, mine := uint64(7), local
		if p.Rank() > 0 {
			word = uint64(p.Rank())
		}
		if p.Rank() == 2 {
			mine = mine[:1]
		}
		_, _, err = p.AgreeLendV(0, word, 0, mine, counts)
		var d *Disagreement
		if !errors.As(err, &d) || d.Rank != 1 {
			return fmt.Errorf("rank %d: err = %v, want a Disagreement naming rank 1", p.Rank(), err)
		}
		return p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShareVAliasesBlocks: every rank receives every rank's own slice,
// in rank order, not a copy: a write through one rank's view is what
// the owner reads after the next collective.
func TestShareVAliasesBlocks(t *testing.T) {
	counts := []int{2, 0, 3}
	err := Run(3, func(p *Proc) error {
		local := make([]float64, counts[p.Rank()])
		blocks, err := p.ShareV(local)
		if err != nil {
			return err
		}
		if len(blocks) != len(counts) {
			return fmt.Errorf("rank %d got %d blocks", p.Rank(), len(blocks))
		}
		for r, blk := range blocks {
			if len(blk) != counts[r] {
				return fmt.Errorf("rank %d: block %d has %d elements", p.Rank(), r, len(blk))
			}
		}
		// Each rank writes element i of every block with i%3 == its rank.
		for r, blk := range blocks {
			for i := p.Rank(); i < len(blk); i += 3 {
				blk[i] = float64(10*r + i)
			}
		}
		if err := p.Barrier(); err != nil {
			return err
		}
		for i, v := range local {
			if v != float64(10*p.Rank()+i) {
				return fmt.Errorf("rank %d local[%d] = %v: a peer wrote to a copy", p.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveMismatchFails: ranks that enter different collectives,
// or name different roots, share one round; it must fail on every rank
// rather than pair them.
func TestCollectiveMismatchFails(t *testing.T) {
	counts := []int{1, 1}
	cases := map[string][2]func(p *Proc) error{
		"LendV against ShareV": {
			func(p *Proc) error { _, err := p.LendV(0, []float64{1}, counts); return err },
			func(p *Proc) error { _, err := p.ShareV([]float64{2}); return err },
		},
		"Bcast against Barrier": {
			func(p *Proc) error { _, err := p.Bcast(0, []byte("x")); return err },
			func(p *Proc) error { return p.Barrier() },
		},
		"BcastV against Bcast": {
			func(p *Proc) error { _, _, err := p.BcastV(0, []byte("x"), nil); return err },
			func(p *Proc) error { _, err := p.Bcast(0, nil); return err },
		},
		"AgreeLendV against LendV": {
			func(p *Proc) error { _, _, err := p.AgreeLendV(0, 1, 0, []float64{1}, counts); return err },
			func(p *Proc) error { _, err := p.LendV(0, []float64{2}, counts); return err },
		},
		"Bcast roots differ": {
			func(p *Proc) error { _, err := p.Bcast(0, []byte("x")); return err },
			func(p *Proc) error { _, err := p.Bcast(1, []byte("y")); return err },
		},
	}
	for name, calls := range cases {
		t.Run(name, func(t *testing.T) {
			w := MustWorld(2)
			defer w.Close()
			errc := make(chan error, 2)
			for r, call := range calls {
				go func(p *Proc) { errc <- call(p) }(w.Rank(r))
			}
			deadline := time.After(time.Second)
			for range calls {
				select {
				case err := <-errc:
					if err == nil {
						t.Error("a rank returned no error from a mismatched round")
					}
				case <-deadline:
					t.Fatal("a rank is still blocked in the mismatched round")
				}
			}
		})
	}
}

// TestCloseDuringCollectives: ranks looping over every collective all
// return ErrClosed when the world closes under them, whichever round
// each is in, and again from the collective they call next. Under
// -race it pins the order in enter: a rank woken by Close that goes on
// to its next collective must not write its slot into the buffer that
// a slower rank is still reading (AllgatherU64, ShareV and LendV's
// root read every slot, and BcastV's ranks root's table).
func TestCloseDuringCollectives(t *testing.T) {
	const size = 4
	counts := []int{3, 0, 2, 1}
	table := make([][][]float64, size)
	step := func(p *Proc, i int, local []float64) error {
		switch i % 7 {
		case 0:
			return p.Barrier()
		case 1:
			_, err := p.Bcast(i%size, []byte("payload"))
			return err
		case 2:
			_, err := p.ShareV(local)
			return err
		case 3:
			_, err := p.LendV(1, local, counts)
			return err
		case 4:
			_, _, err := p.BcastV(2, []byte("payload"), table)
			return err
		case 5:
			_, _, err := p.AgreeLendV(3, 9, uint64(i), local, counts)
			return err
		default:
			_, err := p.AllgatherU64(uint64(i))
			return err
		}
	}
	rng := rand.New(rand.NewSource(40))
	for iter := 0; iter < 8; iter++ {
		w := MustWorld(size)
		errc := make(chan error, size)
		for r := 0; r < size; r++ {
			go func(p *Proc) {
				local := make([]float64, counts[p.Rank()])
				for i := 0; ; i++ {
					if err := step(p, i, local); err != nil {
						if again := step(p, i+1, local); !errors.Is(again, ErrClosed) {
							err = fmt.Errorf("%v, then %v", err, again)
						}
						errc <- err
						return
					}
				}
			}(w.Rank(r))
		}
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		w.Close()
		deadline := time.After(5 * time.Second)
		for r := 0; r < size; r++ {
			select {
			case err := <-errc:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("iteration %d: err = %v, want ErrClosed", iter, err)
				}
			case <-deadline:
				t.Fatalf("iteration %d: a rank is still blocked after Close", iter)
			}
		}
	}
}

// costedCollective is one call of a collective on one rank, with root
// 0, and the bound on the allocations that call may make on that rank.
type costedCollective struct {
	name   string
	call   func(p *Proc) error
	allocs func(rank int) int
}

func costedCollectives(size int) []costedCollective {
	counts := make([]int, size)
	locals := make([][]float64, size)
	table := make([][][]float64, size)
	for r := range counts {
		counts[r] = 4
		locals[r] = make([]float64, 4)
		table[r] = [][]float64{locals[r]}
	}
	payload := make([]byte, 64)
	onRoot := func(n int) func(int) int {
		return func(rank int) int {
			if rank == 0 {
				return n
			}
			return 1 - n
		}
	}
	return []costedCollective{
		{"Barrier", func(p *Proc) error { return p.Barrier() }, func(int) int { return 0 }},
		// The root keeps its payload; every receiver gets a copy.
		{"Bcast", func(p *Proc) error { _, err := p.Bcast(0, payload); return err }, onRoot(0)},
		// Nothing: each rank reuses its own result buffer.
		{"AllgatherU64", func(p *Proc) error { _, err := p.AllgatherU64(uint64(p.Rank())); return err },
			func(int) int { return 0 }},
		// The block table at root; a lender allocates nothing.
		{"LendV", func(p *Proc) error { _, err := p.LendV(0, locals[p.Rank()], counts); return err }, onRoot(1)},
		// Nothing: the payload and the blocks are root's, handed out by
		// reference.
		{"BcastV", func(p *Proc) error { _, _, err := p.BcastV(0, payload, table); return err },
			func(int) int { return 0 }},
		// LendV's table at root; the word and the value cost nothing.
		{"AgreeLendV", func(p *Proc) error {
			_, _, err := p.AgreeLendV(0, 42, 7, locals[p.Rank()], counts)
			return err
		}, onRoot(1)},
	}
}

// TestCollectiveAllocs pins what one collective allocates. The
// allocation counter is process-wide, so one measured run drives the
// collective on every rank and the bound is the sum of the per-rank
// bounds.
func TestCollectiveAllocs(t *testing.T) {
	for _, size := range []int{2, 4} {
		for _, c := range costedCollectives(size) {
			w := MustWorld(size)
			start := make([]chan struct{}, size)
			done := make(chan error, size)
			for r := 1; r < size; r++ {
				start[r] = make(chan struct{})
				go func(p *Proc, start <-chan struct{}) {
					for range start {
						done <- c.call(p)
					}
				}(w.Rank(r), start[r])
			}
			var failed error
			got := testing.AllocsPerRun(100, func() {
				for r := 1; r < size; r++ {
					start[r] <- struct{}{}
				}
				if err := c.call(w.Rank(0)); err != nil {
					failed = err
				}
				for r := 1; r < size; r++ {
					if err := <-done; err != nil {
						failed = err
					}
				}
			})
			for r := 1; r < size; r++ {
				close(start[r])
			}
			w.Close()
			if failed != nil {
				t.Fatalf("%s at %d ranks: %v", c.name, size, failed)
			}
			want := 0
			for r := 0; r < size; r++ {
				want += c.allocs(r)
			}
			if got > float64(want) {
				t.Errorf("%s at %d ranks: %.1f allocations per round, want at most %d", c.name, size, got, want)
			}
		}
	}
}

// BenchmarkCollectives runs each costed collective back to back on
// every rank of a 4-rank world; one op is one round.
func BenchmarkCollectives(b *testing.B) {
	const size = 4
	for _, c := range costedCollectives(size) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			err := Run(size, func(p *Proc) error {
				for i := 0; i < b.N; i++ {
					if err := c.call(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
