package spmd

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stuckWaits are the frames a goroutine's stack shows while a window put
// waits for its window, or while a rank waits in an mp collective round
// or for a point-to-point message.
var stuckWaits = []string{
	"pardis/internal/orb.(*blockRouter).awaitWindow",
	"pardis/internal/mp.(*Proc).enter",
	"pardis/internal/mp.(*Proc).Recv",
}

// TestMain fails the package when a put still waits for its window, or
// a rank in the runtime, after the last test: every put's wait must end
// by the window registering, its invocation retiring, its connection
// ending or the bound passing, and every rank's by its peers arriving,
// its message being sent or its world closing. A wait no test ends is
// one that none of those ended: a leaked put or a stranded rank.
func TestMain(m *testing.M) {
	code := m.Run()
	if stuck := stuckGoroutines(); code == 0 && stuck != "" {
		fmt.Fprintf(os.Stderr, "a window put or a rank still waits after the last test:\n%s\n", stuck)
		code = 1
	}
	os.Exit(code)
}

// stuckGoroutines returns the stacks of the goroutines sitting in one of
// stuckWaits, after giving waits that are ending a moment to do so.
func stuckGoroutines() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var stuck []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, w := range stuckWaits {
				if strings.Contains(g, w) {
					stuck = append(stuck, g)
					break
				}
			}
		}
		if len(stuck) == 0 || time.Now().After(deadline) {
			return strings.Join(stuck, "\n\n")
		}
	}
}
