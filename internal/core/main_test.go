package core

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// rtsWaits are the frames a goroutine's stack shows while it waits in
// an mp collective round or for a point-to-point message.
var rtsWaits = []string{
	"pardis/internal/mp.(*Proc).enter",
	"pardis/internal/mp.(*Proc).Recv",
}

// TestMain fails the package when a goroutine still waits in the
// runtime after the last test: every wait must end by its peers
// arriving, its message being sent or its world closing, and a wait no
// test ends is a leaked rank.
func TestMain(m *testing.M) {
	code := m.Run()
	if stuck := stuckRTSWaits(); code == 0 && stuck != "" {
		fmt.Fprintf(os.Stderr, "a rank still waits in mp after the last test:\n%s\n", stuck)
		code = 1
	}
	os.Exit(code)
}

// stuckRTSWaits returns the stacks of the goroutines sitting in an mp
// wait, after giving waits that are ending a moment to do so.
func stuckRTSWaits() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var stuck []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, w := range rtsWaits {
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
