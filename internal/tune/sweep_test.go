package tune

import (
	"testing"
	"time"

	"pardis/internal/perfmodel"
	"pardis/internal/simnet"
	"pardis/internal/telemetry"
)

// staticKnobs is the static configuration the tuner was measured
// against (256 KiB chunks, the data plane's chunk size while the tuner
// was wired in; min(4, GOMAXPROCS) window and stripes), pinned so the
// sweep is machine-independent.
var staticKnobs = Recommendation{XferChunkBytes: 256 << 10, XferWindow: 4, Stripes: 4}

// TestFigure4SweepTunedDominatesStatic runs the Figure-4 length sweep
// on the calibrated LAN and WAN topologies: at every point the tuner's
// converged recommendation must transfer no slower than the static
// defaults, measured by the simnet path model — which executes the
// windowed send protocol event by event and shares no code with the
// tuner's BDP heuristic.
func TestFigure4SweepTunedDominatesStatic(t *testing.T) {
	for _, path := range []simnet.Path{simnet.LANPath(), simnet.WANPath()} {
		t.Run(path.Name, func(t *testing.T) {
			for _, length := range perfmodel.Figure4Lengths {
				bytes := length * 8
				staticSec := path.TransferSeconds(bytes,
					staticKnobs.XferChunkBytes, staticKnobs.XferWindow, staticKnobs.Stripes)
				tuned := convergeOnPath(t, path, bytes)
				tunedSec := path.TransferSeconds(bytes,
					tuned.XferChunkBytes, tuned.XferWindow, tuned.Stripes)
				// Match-or-dominate with a hair of float tolerance: the
				// DES is deterministic, so equality is exact when the
				// tuned knobs coincide with the static ones.
				if tunedSec > staticSec*(1+1e-9) {
					t.Errorf("%s doubles=%d: tuned %+v took %.6gs, static %+v took %.6gs",
						path.Name, length, tuned, tunedSec, staticKnobs, staticSec)
				}
			}
		})
	}
}

// convergeOnPath closes the measure→model→adapt loop on the simulated
// path: each iteration transfers under the current recommendation
// (static until the tuner has enough samples) and feeds the observed
// bytes/seconds back, exactly as the spmd engine does live.
func convergeOnPath(t *testing.T, path simnet.Path, bytes int) Recommendation {
	t.Helper()
	now := time.Unix(2000, 0)
	tu := New(Config{
		ParallelFloor: staticKnobs.XferWindow,
		Now:           func() time.Time { return now },
		Registry:      telemetry.NewRegistry(),
	})
	ep := "sim:" + path.Name
	tu.Probe(ep, time.Duration(path.RTT*float64(time.Second)))
	// Enough iterations for the EWMA+hysteresis loop to climb out of a
	// deeply window-limited start (WAN: ~7 re-derivations, each needing
	// a few samples to drift past the hysteresis band).
	knobs := staticKnobs
	for i := 0; i < 48; i++ {
		sec := path.TransferSeconds(bytes, knobs.XferChunkBytes, knobs.XferWindow, knobs.Stripes)
		now = now.Add(time.Second)
		tu.Record(ep, uint64(bytes), time.Duration(sec*float64(time.Second)))
		if rec, ok := tu.Recommend(ep); ok {
			knobs = rec
		}
	}
	return knobs
}

// TestWANWindowCoversBDP pins the headline mechanism: on the WAN path
// the static 4×256 KiB window covers only 1 MiB of the 5 MB
// bandwidth-delay product, so the wire idles between windows; the
// tuned configuration must restore wire-limited throughput (≥3x) on a
// bulk transfer.
func TestWANWindowCoversBDP(t *testing.T) {
	path := simnet.WANPath()
	bytes := 1 << 23 // 8 MiB
	staticSec := path.TransferSeconds(bytes,
		staticKnobs.XferChunkBytes, staticKnobs.XferWindow, staticKnobs.Stripes)
	tuned := convergeOnPath(t, path, bytes)
	tunedSec := path.TransferSeconds(bytes,
		tuned.XferChunkBytes, tuned.XferWindow, tuned.Stripes)
	if staticSec/tunedSec < 3 {
		t.Errorf("WAN bulk speedup %.2fx (static %.4gs, tuned %.4gs %+v), want >= 3x",
			staticSec/tunedSec, staticSec, tunedSec, tuned)
	}
	wireFloor := float64(bytes) / path.BandwidthBps
	if tunedSec > 2*wireFloor {
		t.Errorf("tuned WAN transfer %.4gs more than 2x the wire floor %.4gs", tunedSec, wireFloor)
	}
}
