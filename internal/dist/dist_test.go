package dist

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockApply(t *testing.T) {
	cases := []struct {
		length, p int
		want      []int
	}{
		{10, 1, []int{10}},
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{10, 4, []int{3, 3, 2, 2}},
		{3, 5, []int{1, 1, 1, 0, 0}},
		{0, 4, []int{0, 0, 0, 0}},
		{131072, 8, []int{16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384}},
	}
	for _, c := range cases {
		l, err := Block().Apply(c.length, c.p)
		if err != nil {
			t.Fatalf("Block(%d,%d): %v", c.length, c.p, err)
		}
		got := l.Counts()
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("Block(%d,%d) = %v, want %v", c.length, c.p, got, c.want)
			}
		}
	}
}

func TestProportionsApply(t *testing.T) {
	// The paper's example: Proportions(2,4,2,4) over 12 elements
	// gives blocks in ratio 2:4:2:4 = 2,4,2,4.
	s, err := Proportions(2, 4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	l := s.MustApply(12, 4)
	want := []int{2, 4, 2, 4}
	for i, w := range want {
		if l.Count(i) != w {
			t.Fatalf("counts = %v, want %v", l.Counts(), want)
		}
	}
	// Non-divisible length still conserves elements and stays within
	// one element of the exact share.
	l2 := s.MustApply(13, 4)
	sum := 0
	for _, c := range l2.Counts() {
		sum += c
	}
	if sum != 13 {
		t.Fatalf("proportions lose elements: %v", l2.Counts())
	}
}

func TestProportionsErrors(t *testing.T) {
	if _, err := Proportions(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty weights: %v", err)
	}
	if _, err := Proportions(1, 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero weight: %v", err)
	}
	if _, err := Proportions(1, -2); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative weight: %v", err)
	}
	s, _ := Proportions(1, 2)
	if _, err := s.Apply(10, 3); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("pinned thread count: %v", err)
	}
}

func TestExplicit(t *testing.T) {
	s, err := Explicit(3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	l := s.MustApply(10, 3)
	if l.Count(0) != 3 || l.Count(1) != 0 || l.Count(2) != 7 {
		t.Fatalf("explicit counts = %v", l.Counts())
	}
	if _, err := s.Apply(11, 3); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("length mismatch: %v", err)
	}
	if _, err := Explicit(-1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative count: %v", err)
	}
}

func TestApplyErrors(t *testing.T) {
	if _, err := Block().Apply(-1, 2); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative length: %v", err)
	}
	if _, err := Block().Apply(10, 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero threads: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	if Block().String() != "BLOCK" {
		t.Fatalf("block string = %q", Block().String())
	}
	s, _ := Proportions(2, 4)
	if s.String() != "Proportions(2,4)" {
		t.Fatalf("proportions string = %q", s.String())
	}
	e, _ := Explicit(1, 2)
	if e.String() != "Explicit(1,2)" {
		t.Fatalf("explicit string = %q", e.String())
	}
}

func TestSpecEqual(t *testing.T) {
	a, _ := Proportions(1, 2)
	b, _ := Proportions(1, 2)
	c, _ := Proportions(2, 1)
	if !a.Equal(b) || a.Equal(c) || a.Equal(Block()) {
		t.Fatal("Spec.Equal misbehaves")
	}
}

func TestOwner(t *testing.T) {
	l := Block().MustApply(10, 3) // 4,3,3
	wantOwners := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i, w := range wantOwners {
		got, err := l.Owner(i)
		if err != nil || got != w {
			t.Fatalf("Owner(%d) = %d,%v want %d", i, got, err, w)
		}
	}
	if _, err := l.Owner(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Owner(-1): %v", err)
	}
	if _, err := l.Owner(10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Owner(10): %v", err)
	}
}

func TestOwnerWithEmptyBlocks(t *testing.T) {
	s, _ := Explicit(0, 5, 0, 5)
	l := s.MustApply(10, 4)
	for i := 0; i < 5; i++ {
		if o, _ := l.Owner(i); o != 1 {
			t.Fatalf("Owner(%d) = %d, want 1", i, o)
		}
	}
	for i := 5; i < 10; i++ {
		if o, _ := l.Owner(i); o != 3 {
			t.Fatalf("Owner(%d) = %d, want 3", i, o)
		}
	}
}

func TestRelengthShrink(t *testing.T) {
	l := Block().MustApply(10, 3) // 4,3,3 → offsets 0,4,7,10
	s, err := l.Relength(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counts(); got[0] != 4 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("shrink counts = %v", got)
	}
	z, err := l.Relength(0)
	if err != nil || z.Len() != 0 {
		t.Fatalf("shrink to zero: %v %v", z, err)
	}
}

func TestRelengthGrow(t *testing.T) {
	l := Block().MustApply(10, 3)
	g, err := l.Relength(20)
	if err != nil {
		t.Fatal(err)
	}
	// New elements go to the owner of the old last element (thread 2).
	if got := g.Counts(); got[0] != 4 || got[1] != 3 || got[2] != 13 {
		t.Fatalf("grow counts = %v", got)
	}
	// Growing an empty sequence assigns to the last thread.
	e := Block().MustApply(0, 3)
	g2, _ := e.Relength(6)
	if got := g2.Counts(); got[0] != 0 || got[1] != 0 || got[2] != 6 {
		t.Fatalf("grow-from-empty counts = %v", got)
	}
	if _, err := l.Relength(-1); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("negative relength: %v", err)
	}
}

func TestRelengthGrowSkipsTrailingEmpty(t *testing.T) {
	s, _ := Explicit(5, 5, 0)
	l := s.MustApply(10, 3)
	g, _ := l.Relength(12)
	// Thread 1 owned the last element, so it receives the growth.
	if got := g.Counts(); got[0] != 5 || got[1] != 7 || got[2] != 0 {
		t.Fatalf("grow counts = %v", got)
	}
}

func TestPlanIdentity(t *testing.T) {
	l := Block().MustApply(100, 4)
	plan, err := Plan(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("identity plan has %d transfers, want 4", len(plan))
	}
	for _, tr := range plan {
		if tr.From != tr.To || tr.SrcOff != 0 || tr.DstOff != 0 {
			t.Fatalf("identity transfer %v", tr)
		}
	}
}

func TestPlanPaperConfiguration(t *testing.T) {
	// The paper's fixed configuration: n=4 client threads, m=8 server
	// threads, 2^17 doubles, both sides uniform BLOCK. Each client
	// block of 32768 splits into exactly 2 server blocks of 16384:
	// the minimal number of sends (8 total), as §3.3 observes.
	src := Block().MustApply(1<<17, 4)
	dst := Block().MustApply(1<<17, 8)
	plan, err := Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 8 {
		t.Fatalf("plan size = %d, want 8", len(plan))
	}
	for _, tr := range plan {
		if tr.Count != 16384 {
			t.Fatalf("transfer %v: count != 16384", tr)
		}
		if tr.To/2 != tr.From {
			t.Fatalf("transfer %v: wrong pairing", tr)
		}
	}
}

func TestPlanUneven(t *testing.T) {
	// §3.3's n=3, m=5 uneven case.
	src := Block().MustApply(1<<17, 3)
	dst := Block().MustApply(1<<17, 5)
	plan, err := Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanCovers(t, plan, src, dst)
}

func TestPlanLengthMismatch(t *testing.T) {
	a := Block().MustApply(10, 2)
	b := Block().MustApply(11, 2)
	if _, err := Plan(a, b); !errors.Is(err, ErrBadLayout) {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestPlanFor(t *testing.T) {
	src := Block().MustApply(100, 4)
	dst := Block().MustApply(100, 8)
	plan, _ := Plan(src, dst)
	mine := PlanFor(plan, 2)
	for _, tr := range mine {
		if tr.From != 2 {
			t.Fatalf("PlanFor returned %v", tr)
		}
	}
	if len(mine) == 0 {
		t.Fatal("empty filtered plan")
	}
}

// checkPlanCovers verifies the conservation property: every global
// element is moved exactly once, with consistent local offsets.
func checkPlanCovers(t *testing.T, plan []Transfer, src, dst Layout) {
	t.Helper()
	seen := make([]int, src.Len())
	for _, tr := range plan {
		if tr.Count <= 0 {
			t.Fatalf("empty transfer %v", tr)
		}
		if tr.Global != src.Lo(tr.From)+tr.SrcOff {
			t.Fatalf("src offset inconsistent: %v", tr)
		}
		if tr.Global != dst.Lo(tr.To)+tr.DstOff {
			t.Fatalf("dst offset inconsistent: %v", tr)
		}
		for g := tr.Global; g < tr.Global+tr.Count; g++ {
			seen[g]++
			so, err := src.Owner(g)
			if err != nil || so != tr.From {
				t.Fatalf("element %d not owned by sender %d", g, tr.From)
			}
			do, err := dst.Owner(g)
			if err != nil || do != tr.To {
				t.Fatalf("element %d not owned by receiver %d", g, tr.To)
			}
		}
	}
	for g, c := range seen {
		if c != 1 {
			t.Fatalf("element %d moved %d times", g, c)
		}
	}
}

// Property: plans between random layouts conserve all elements.
func TestQuickPlanConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		length := r.Intn(5000)
		srcP := 1 + r.Intn(9)
		dstP := 1 + r.Intn(9)
		src := randomLayout(r, length, srcP)
		dst := randomLayout(r, length, dstP)
		plan, err := Plan(src, dst)
		if err != nil {
			return false
		}
		seen := make([]bool, length)
		for _, tr := range plan {
			for g := tr.Global; g < tr.Global+tr.Count; g++ {
				if seen[g] {
					return false
				}
				seen[g] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: plan transfer count is minimal — it equals the number of
// nonempty (src block ∩ dst block) intersections.
func TestQuickPlanMinimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		length := 1 + r.Intn(3000)
		src := randomLayout(r, length, 1+r.Intn(8))
		dst := randomLayout(r, length, 1+r.Intn(8))
		plan, err := Plan(src, dst)
		if err != nil {
			return false
		}
		want := 0
		for i := 0; i < src.P(); i++ {
			for j := 0; j < dst.P(); j++ {
				lo := max(src.Lo(i), dst.Lo(j))
				hi := min(src.Hi(i), dst.Hi(j))
				if lo < hi {
					want++
				}
			}
		}
		return len(plan) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: BLOCK layouts partition the index space with sizes within
// one of each other and in non-increasing order.
func TestQuickBlockBalance(t *testing.T) {
	f := func(length uint16, p uint8) bool {
		pp := int(p%16) + 1
		l, err := Block().Apply(int(length), pp)
		if err != nil {
			return false
		}
		counts := l.Counts()
		minC, maxC := counts[0], counts[0]
		sum := 0
		for i, c := range counts {
			sum += c
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
			if i > 0 && counts[i] > counts[i-1] {
				return false
			}
		}
		return sum == int(length) && maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Relength then Relength back preserves total length, and
// shrinking never increases any block.
func TestQuickRelength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		length := r.Intn(2000)
		p := 1 + r.Intn(8)
		l := randomLayout(r, length, p)
		newLen := r.Intn(2500)
		m, err := l.Relength(newLen)
		if err != nil || m.Len() != newLen || m.P() != p {
			return false
		}
		if newLen <= length {
			for i := 0; i < p; i++ {
				if m.Count(i) > l.Count(i) {
					return false
				}
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomLayout(r *rand.Rand, length, p int) Layout {
	switch r.Intn(3) {
	case 0:
		return Block().MustApply(length, p)
	case 1:
		w := make([]int, p)
		for i := range w {
			w[i] = 1 + r.Intn(10)
		}
		s, err := Proportions(w...)
		if err != nil {
			panic(err)
		}
		return s.MustApply(length, p)
	default:
		// Random explicit cut points.
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
		s, err := Explicit(counts...)
		if err != nil {
			panic(err)
		}
		return s.MustApply(length, p)
	}
}
