// Modern calibrated path topologies: where simnet.go replays the
// paper's 1996 ATM testbed, Path models the networks today's
// deployments actually sit on (datacenter LAN, cross-site WAN) at the
// granularity the data-plane knobs act on — chunked, windowed,
// striped block streams. The transfer model is independent of
// internal/tune's recommendation heuristic (it executes the windowed
// send protocol on a discrete-event simulation rather than inverting
// the BDP formula), so the Figure-4 sweep test that asserts
// tuned ≥ static is non-circular.
package simnet

import "pardis/internal/des"

// Path describes one calibrated client→server network path.
type Path struct {
	// Name labels the topology in test output.
	Name string
	// BandwidthBps is the bottleneck wire rate in bytes per second.
	BandwidthBps float64
	// RTT is the round-trip time in seconds: a chunk's window credit
	// is held from send start until its acknowledgment returns, so
	// in-flight data must cover BandwidthBps×RTT to keep the wire busy.
	RTT float64
	// PerChunkCost is the fixed per-chunk sender cost in seconds
	// (framing, encode, syscall) paid before the chunk touches the
	// wire; it is what chunk-size amortization buys back.
	PerChunkCost float64
	// Setup is the one-time per-transfer cost (invocation header,
	// plan exchange) in seconds.
	Setup float64
}

// LANPath is a calibrated 10 GbE datacenter path: 1.25 GB/s wire,
// 200 µs RTT through the kernel stack and one switch, 20 µs fixed
// cost per chunk.
func LANPath() Path {
	return Path{Name: "lan", BandwidthBps: 1.25e9, RTT: 200e-6,
		PerChunkCost: 20e-6, Setup: 300e-6}
}

// WANPath is a calibrated cross-site 1 Gb/s path: 125 MB/s wire,
// 40 ms RTT, the same 20 µs per-chunk sender cost.
func WANPath() Path {
	return Path{Name: "wan", BandwidthBps: 125e6, RTT: 40e-3,
		PerChunkCost: 20e-6, Setup: 300e-6}
}

// TransferSeconds simulates one windowed, chunked, striped transfer of
// `bytes` payload bytes over the path and returns its wall-clock time.
//
// The simulation executes the data plane's actual send protocol
// (spmd.sendPlanPuts): the transfer splits into
// ceil(bytes/chunkBytes) chunks issued in order under a window-credit
// semaphore; each chunk occupies one of `stripes` connection slots
// while it pays the fixed per-chunk cost, transmits over the shared
// bottleneck wire (capacity 1, FCFS — transmissions from concurrent
// chunks serialize), and holds its window credit until the
// acknowledgment returns one RTT after send start. chunkBytes <= 0
// means chunking disabled (the whole transfer is one chunk); window
// and stripes below 1 clamp to 1.
func (pt Path) TransferSeconds(bytes, chunkBytes, window, stripes int) float64 {
	if bytes <= 0 {
		return pt.Setup
	}
	if chunkBytes <= 0 || chunkBytes > bytes {
		chunkBytes = bytes
	}
	window = max(window, 1)
	stripes = max(stripes, 1)

	sim := des.New(1)
	credits := sim.NewResource(window)
	slots := sim.NewResource(stripes)
	wire := sim.NewResource(1)

	sim.Spawn("sender", func(p *des.Proc) {
		p.Wait(pt.Setup)
		for off := 0; off < bytes; off += chunkBytes {
			n := min(chunkBytes, bytes-off)
			// The issue loop acquires the credit (the in-flight window
			// bound) before the chunk goroutine exists, exactly like
			// the semaphore in sendPlanPuts.
			credits.Acquire(p)
			sim.Spawn("chunk", func(cp *des.Proc) {
				slots.Acquire(cp)
				cp.Wait(pt.PerChunkCost)
				wire.Use(cp, float64(n)/pt.BandwidthBps)
				slots.Release(cp)
				// The credit returns when the ack does: one RTT after
				// the chunk cleared the sender.
				cp.Wait(pt.RTT)
				credits.Release(cp)
			})
		}
	})
	return sim.Run()
}
