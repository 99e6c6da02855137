package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"pardis/internal/telemetry"
)

// faultyPair builds an inproc transport wrapped in a Faulty layer and
// a listener with a goroutine that drains every accepted connection,
// returning the wrapper, the address, and a channel of per-connection
// byte counts observed by the reader side.
func faultyPair(t *testing.T, plan FaultPlan) (*Faulty, string, <-chan []byte) {
	t.Helper()
	inner := NewInproc()
	f := NewFaulty(inner, plan)
	l, err := f.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got := make(chan []byte, 64)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				data, _ := io.ReadAll(c)
				got <- data
				c.Close()
			}()
		}
	}()
	return f, "srv", got
}

func TestFaultySchemeComposition(t *testing.T) {
	inner := NewInproc()
	f := NewFaulty(inner, FaultPlan{})
	if f.Scheme() != "faulty+inproc" {
		t.Fatalf("scheme = %q", f.Scheme())
	}
	reg := NewRegistry()
	reg.Register(f)
	l, err := reg.Listen("faulty+inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ep := l.Endpoint()
	scheme, _, err := SplitEndpoint(ep)
	if err != nil || scheme != "faulty+inproc" {
		t.Fatalf("listener endpoint %q does not carry the composed scheme", ep)
	}
	// Dialing the advertised endpoint goes back through the wrapper.
	c, err := reg.Dial(ep)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if f.Stats().Dials != 1 {
		t.Fatalf("stats = %+v", f.Stats())
	}
}

func TestFaultyDialRefused(t *testing.T) {
	f, addr, _ := faultyPair(t, FaultPlan{Seed: 1, DialRefuse: 1})
	for i := 0; i < 3; i++ {
		if _, err := f.Dial(addr); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if s := f.Stats(); s.RefusedDials != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyCutMidMessage(t *testing.T) {
	f, addr, got := faultyPair(t, FaultPlan{Seed: 1, Cut: 1, CutAfter: 20})
	c, err := f.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64)
	n, werr := c.Write(msg)
	if !errors.Is(werr, ErrInjectedFault) {
		t.Fatalf("write: n=%d err=%v", n, werr)
	}
	// A clean (non-truncating) cut delivers the fatal write whole,
	// then closes: the peer sees the bytes followed by EOF.
	select {
	case data := <-got:
		if len(data) != 64 {
			t.Fatalf("peer saw %d bytes, want 64", len(data))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never observed the cut")
	}
	// The connection is dead for further writes.
	if _, err := c.Write([]byte("more")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-cut write: %v", err)
	}
	if s := f.Stats(); s.CutConns != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyTruncatedWrite(t *testing.T) {
	f, addr, got := faultyPair(t, FaultPlan{Seed: 1, Cut: 1, Truncate: 1, CutAfter: 20})
	c, err := f.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64)
	if _, err := c.Write(msg); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("write: %v", err)
	}
	select {
	case data := <-got:
		if len(data) != 20 {
			t.Fatalf("peer saw %d bytes, want the torn 20", len(data))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never observed the truncation")
	}
	if s := f.Stats(); s.TruncatedWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFaultyBlackhole(t *testing.T) {
	f, addr, _ := faultyPair(t, FaultPlan{Seed: 1, Blackhole: 1})
	c, err := f.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Writes report success but deliver nothing.
	if n, err := c.Write([]byte("into the void")); err != nil || n != 13 {
		t.Fatalf("blackholed write: n=%d err=%v", n, err)
	}
	if s := f.Stats(); s.BlackholedConns != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFaultyDeterministic: the same seed replays the same fault
// sequence; a different seed diverges (eventually).
func TestFaultyDeterministic(t *testing.T) {
	outcomes := func(seed int64) []bool {
		inner := NewInproc()
		f := NewFaulty(inner, FaultPlan{Seed: seed, DialRefuse: 0.5})
		l, err := f.Listen("d")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		var out []bool
		for i := 0; i < 32; i++ {
			c, err := f.Dial("d")
			out = append(out, err == nil)
			if c != nil {
				c.Close()
			}
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at dial %d", i)
		}
	}
	c := outcomes(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestInprocDialTimeout: a full, never-drained backlog fails dials
// with ErrDialTimeout instead of blocking forever.
func TestInprocDialTimeout(t *testing.T) {
	i := NewInproc()
	i.DialTimeout = 50 * time.Millisecond
	l, err := i.Listen("stuck")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fill the backlog (16) without ever accepting.
	for n := 0; n < 16; n++ {
		if _, err := i.Dial("stuck"); err != nil {
			t.Fatalf("backlog fill dial %d: %v", n, err)
		}
	}
	start := time.Now()
	_, err = i.Dial("stuck")
	if !errors.Is(err, ErrDialTimeout) {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial blocked %v before timing out", d)
	}
}

// TestInprocDialRespectsClose: dialers blocked on a full backlog are
// released when the listener closes.
func TestInprocDialRespectsClose(t *testing.T) {
	i := NewInproc()
	i.DialTimeout = 5 * time.Second
	l, err := i.Listen("closing")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 16; n++ {
		if _, err := i.Dial("closing"); err != nil {
			t.Fatalf("backlog fill dial %d: %v", n, err)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := i.Dial("closing")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial not released by listener close")
	}
}

// TestFaultLedgerMatchesTelemetry: the transport's own fault ledger
// (Stats) and the mirrored pardis_faults_injected_total counters are
// independent bookkeeping paths and must agree — class by class, and
// so in total — after a seeded plan that injects every class.
func TestFaultLedgerMatchesTelemetry(t *testing.T) {
	classes := []string{"dial_refused", "cut", "truncated_write", "blackhole"}
	counter := func(class string) uint64 {
		return telemetry.Default.Counter("pardis_faults_injected_total", "class", class).Value()
	}
	before := make(map[string]uint64)
	for _, c := range classes {
		before[c] = counter(c)
	}
	total0 := telemetry.Default.CounterValue("pardis_faults_injected_total")

	f, addr, _ := faultyPair(t, FaultPlan{
		Seed: 7, DialRefuse: 0.25, Cut: 0.4, CutAfter: 32, Truncate: 0.5, Blackhole: 0.3})
	msg := make([]byte, 64)
	for i := 0; i < 200; i++ {
		c, err := f.Dial(addr)
		if err != nil {
			continue // refused
		}
		_, _ = c.Write(msg) // past CutAfter: a doomed conn dies here
		c.Close()
	}

	st := f.Stats()
	ledger := map[string]int{
		"dial_refused":    st.RefusedDials,
		"cut":             st.CutConns,
		"truncated_write": st.TruncatedWrites,
		"blackhole":       st.BlackholedConns,
	}
	sum := 0
	for _, c := range classes {
		if ledger[c] == 0 {
			t.Errorf("plan injected no %s fault (stats %+v); the test proved nothing", c, st)
		}
		if got := counter(c) - before[c]; got != uint64(ledger[c]) {
			t.Errorf("class %s: telemetry counted %d, ledger %d", c, got, ledger[c])
		}
		sum += ledger[c]
	}
	if got := telemetry.Default.CounterValue("pardis_faults_injected_total") - total0; got != uint64(sum) {
		t.Errorf("telemetry counted %d faults over all classes, ledger %d (stats %+v)", got, sum, st)
	}
}
