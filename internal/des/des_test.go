package des

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var times []float64
	s.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Wait(5)
		times = append(times, p.Now())
		p.Wait(2.5)
		times = append(times, p.Now())
	})
	end := s.Run()
	if end != 7.5 {
		t.Fatalf("end = %v", end)
	}
	want := []float64{0, 5, 7.5}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		p.Wait(1)
		order = append(order, "a1")
		p.Wait(2) // fires at 3
		order = append(order, "a3")
	})
	s.Spawn("b", func(p *Proc) {
		p.Wait(2)
		order = append(order, "b2")
		p.Wait(2) // fires at 4
		order = append(order, "b4")
	})
	s.Run()
	got := strings.Join(order, ",")
	if got != "a1,b2,a3,b4" {
		t.Fatalf("order = %s", got)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Events at the same instant run in schedule order.
	run := func() string {
		s := New(7)
		var order []string
		for _, n := range []string{"x", "y", "z"} {
			n := n
			s.Spawn(n, func(p *Proc) {
				p.Wait(1)
				order = append(order, n)
			})
		}
		s.Run()
		return strings.Join(order, ",")
	}
	a, b := run(), run()
	if a != b || a != "x,y,z" {
		t.Fatalf("runs differ or unordered: %q vs %q", a, b)
	}
}

func TestNegativeWaitClamped(t *testing.T) {
	s := New(1)
	s.Spawn("a", func(p *Proc) {
		p.Wait(-5)
		p.Wait(math.NaN())
	})
	if end := s.Run(); end != 0 {
		t.Fatalf("end = %v", end)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New(1)
	r := s.NewResource(1)
	var done []float64
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			r.Use(p, 10)
			done = append(done, p.Now())
		})
	}
	s.Run()
	want := []float64{10, 20, 30}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("done = %v", done)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	s := New(1)
	r := s.NewResource(2)
	var done []float64
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			r.Use(p, 10)
			done = append(done, p.Now())
		})
	}
	end := s.Run()
	if end != 20 {
		t.Fatalf("end = %v, want 20 (two waves of two)", end)
	}
	if done[0] != 10 || done[1] != 10 || done[2] != 20 || done[3] != 20 {
		t.Fatalf("done = %v", done)
	}
}

func TestResourceFCFS(t *testing.T) {
	s := New(1)
	r := s.NewResource(1)
	var order []string
	spawnAt := func(name string, at float64) {
		s.Spawn(name, func(p *Proc) {
			p.Wait(at)
			r.Acquire(p)
			p.Wait(5)
			r.Release(p)
			order = append(order, name)
		})
	}
	spawnAt("first", 0)
	spawnAt("second", 1)
	spawnAt("third", 2)
	s.Run()
	if got := strings.Join(order, ","); got != "first,second,third" {
		t.Fatalf("order = %s", got)
	}
}

func TestGate(t *testing.T) {
	s := New(1)
	var woke []float64
	g := s.NewGate()
	for i := 0; i < 3; i++ {
		s.Spawn("waiter", func(p *Proc) {
			g.WaitOpen(p)
			woke = append(woke, p.Now())
		})
	}
	s.Spawn("opener", func(p *Proc) {
		p.Wait(42)
		g.Open()
	})
	s.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
	for _, w := range woke {
		if w != 42 {
			t.Fatalf("woke = %v", woke)
		}
	}
	// Late waiter passes immediately.
	s2 := New(1)
	g2 := s2.NewGate()
	g2.Open()
	passed := false
	s2.Spawn("late", func(p *Proc) {
		g2.WaitOpen(p)
		passed = true
	})
	s2.Run()
	if !passed {
		t.Fatal("late waiter blocked on open gate")
	}
}

func TestBarrier(t *testing.T) {
	s := New(1)
	b := s.NewBarrier(3)
	var released []float64
	delays := []float64{5, 10, 15}
	for _, d := range delays {
		d := d
		s.Spawn("p", func(p *Proc) {
			for round := 0; round < 2; round++ {
				p.Wait(d)
				b.Arrive(p)
				released = append(released, p.Now())
			}
		})
	}
	s.Run()
	// First round releases everyone at t=15, second at t=30.
	if len(released) != 6 {
		t.Fatalf("released = %v", released)
	}
	for i, r := range released {
		want := 15.0
		if i >= 3 {
			want = 30
		}
		if r != want {
			t.Fatalf("released = %v", released)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New(1)
	var childRan float64
	s.Spawn("parent", func(p *Proc) {
		p.Wait(3)
		p.sim.Spawn("child", func(c *Proc) {
			c.Wait(4)
			childRan = c.Now()
		})
		p.Wait(10)
	})
	s.Run()
	if childRan != 7 {
		t.Fatalf("child ran at %v", childRan)
	}
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("deadlock not detected")
		}
	}()
	s := New(1)
	r := s.NewResource(1)
	s.Spawn("a", func(p *Proc) {
		r.Acquire(p)
		r.Acquire(p) // self-deadlock
	})
	s.Run()
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("recover = %v", r)
		}
	}()
	s := New(1)
	s.Spawn("bad", func(p *Proc) {
		p.Wait(1)
		panic("boom")
	})
	s.Run()
}

func TestExpDeterministic(t *testing.T) {
	a := New(99)
	b := New(99)
	for i := 0; i < 10; i++ {
		if a.Exp(2) != b.Exp(2) {
			t.Fatal("same seed diverged")
		}
	}
	if a.Exp(0) != 0 || a.Exp(-1) != 0 {
		t.Fatal("nonpositive mean must give 0")
	}
}

// Property: the mean of Exp samples approximates the requested mean.
func TestQuickExpMean(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		const N = 4000
		sum := 0.0
		for i := 0; i < N; i++ {
			sum += s.Exp(3.0)
		}
		mean := sum / N
		return mean > 2.5 && mean < 3.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
