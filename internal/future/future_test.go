package future

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// ready reports whether f has completed, without blocking.
func ready[T any](f *Future[T]) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

func TestResolve(t *testing.T) {
	f, r := New[int]()
	if ready(f) {
		t.Fatal("fresh future is ready")
	}
	go r.Resolve(42)
	v, err := f.Get()
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if !ready(f) {
		t.Fatal("resolved future not ready")
	}
}

func TestReject(t *testing.T) {
	sentinel := errors.New("remote failed")
	f, r := New[string]()
	r.Reject(sentinel)
	v, err := f.Get()
	if !errors.Is(err, sentinel) || v != "" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestRejectNilErrorBecomesErrRejected(t *testing.T) {
	f, r := New[int]()
	r.Reject(nil)
	_, err := f.Get()
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleCompleteIgnored(t *testing.T) {
	f, r := New[int]()
	r.Resolve(1)
	r.Resolve(2)
	r.Reject(errors.New("late"))
	v, err := f.Get()
	if v != 1 || err != nil {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

func TestGetBlocksUntilResolve(t *testing.T) {
	f, r := New[int]()
	got := make(chan int, 1)
	go func() {
		v, _ := f.Get()
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Resolve")
	case <-time.After(10 * time.Millisecond):
	}
	r.Resolve(7)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Get never returned")
	}
}

func TestGetContextCancellation(t *testing.T) {
	f, _ := New[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.GetContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetContextCompletes(t *testing.T) {
	f, r := New[int]()
	r.Resolve(5)
	v, err := f.GetContext(context.Background())
	if err != nil || v != 5 {
		t.Fatalf("GetContext = %d, %v", v, err)
	}
}

func TestManyWaiters(t *testing.T) {
	f, r := New[int]()
	const N = 20
	var wg sync.WaitGroup
	results := make([]int, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = f.Get()
		}(i)
	}
	r.Resolve(99)
	wg.Wait()
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
}

func TestDoneSelect(t *testing.T) {
	f, r := New[int]()
	select {
	case <-f.Done():
		t.Fatal("Done closed early")
	default:
	}
	r.Resolve(0)
	select {
	case <-f.Done():
	default:
		t.Fatal("Done not closed after resolve")
	}
}
