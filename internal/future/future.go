// Package future provides the typed futures PARDIS returns from
// non-blocking invocations (the diffusion_nb style of stub in §2.1,
// modeled on ABC++ futures): a placeholder for an out-argument that is
// not yet available, letting a client use remote resources
// concurrently with its own.
package future

import (
	"context"
	"errors"
	"sync"
)

// ErrRejected wraps the cause when a future completes with an error
// and the caller asks for the value anyway.
var ErrRejected = errors.New("future: rejected")

// Future is the read side of a deferred value of type T. It is safe
// for concurrent use; any number of goroutines may wait on it.
type Future[T any] struct {
	mu    sync.Mutex
	done  chan struct{}
	value T
	err   error
}

// Resolver is the write side; exactly one of Resolve or Reject may be
// called, once.
type Resolver[T any] struct {
	f    *Future[T]
	once sync.Once
}

// New creates a linked Future/Resolver pair.
func New[T any]() (*Future[T], *Resolver[T]) {
	f := &Future[T]{done: make(chan struct{})}
	return f, &Resolver[T]{f: f}
}

// Resolve completes the future with a value. Subsequent calls to
// Resolve or Reject are no-ops.
func (r *Resolver[T]) Resolve(v T) {
	r.once.Do(func() {
		r.f.mu.Lock()
		r.f.value = v
		r.f.mu.Unlock()
		close(r.f.done)
	})
}

// Reject completes the future with an error.
func (r *Resolver[T]) Reject(err error) {
	if err == nil {
		err = ErrRejected
	}
	r.once.Do(func() {
		r.f.mu.Lock()
		r.f.err = err
		r.f.mu.Unlock()
		close(r.f.done)
	})
}

// Get blocks until the future completes and returns its value or the
// rejection error.
func (f *Future[T]) Get() (T, error) {
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.value, f.err
}

// GetContext is Get with cancellation: it returns ctx.Err() if the
// context ends first (the future itself is unaffected and can still
// complete later).
func (f *Future[T]) GetContext(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.Get()
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Done returns a channel closed when the future completes, for use in
// select statements alongside other events.
func (f *Future[T]) Done() <-chan struct{} { return f.done }
