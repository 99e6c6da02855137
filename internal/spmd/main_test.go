package spmd

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// putWait is the frame a goroutine's stack shows while a window put
// waits for its window.
const putWait = "pardis/internal/orb.(*blockRouter).awaitWindow"

// TestMain fails the package when a put still waits for its window
// after the last test: every wait must end by the window registering,
// its invocation retiring, its connection ending or the bound passing,
// and a wait no test ends is one that none of those ended.
func TestMain(m *testing.M) {
	code := m.Run()
	if stuck := stuckPutWaits(); code == 0 && stuck != "" {
		fmt.Fprintf(os.Stderr, "a window put still waits after the last test:\n%s\n", stuck)
		code = 1
	}
	os.Exit(code)
}

// stuckPutWaits returns the stacks of the goroutines sitting in a put's
// wait, after giving waits that are ending a moment to do so.
func stuckPutWaits() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var stuck []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, putWait) {
				stuck = append(stuck, g)
			}
		}
		if len(stuck) == 0 || time.Now().After(deadline) {
			return strings.Join(stuck, "\n\n")
		}
	}
}
