package scenario

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// identityCfg is a short run that still exercises the whole per-packet
// path: marking (virtual queue), probing, drops, and multi-band queues.
func identityCfg() Config {
	return Config{
		Classes:         []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		InterArrival:    0.35,
		LifetimeSec:     30,
		Method:          EAC,
		AC:              admission.Config{Design: admission.MarkInBand, Kind: admission.SlowStart, Eps: 0.05},
		Duration:        40 * sim.Second,
		Warmup:          10 * sim.Second,
		PrepopulateUtil: 0.9,
		Seed:            7,
	}
}

// TestGeometryByteIdentity pins the safety argument of the queue layout:
// the event heap and the sim.Ring FIFOs (lanes, queues, pipes) are pure
// priority/FIFO containers keyed by a total order, so their initial
// capacities (and hence their growth and internal arrangement) must not be
// observable in simulation output. It runs the same scenarios with capacity
// 1 — forcing growth on nearly every insertion — and with generous
// capacities, and requires the aggregated results to be deep-equal. The last
// row also sets sim.PrefetchMinLive to 0, which this small run never
// reaches on its own: every prefetch site then runs, on wrapped rings.
func TestGeometryByteIdentity(t *testing.T) {
	heap0, ring0, pf0 := sim.HeapInitCap, sim.RingInitCap, sim.PrefetchMinLive
	defer func() { sim.HeapInitCap, sim.RingInitCap, sim.PrefetchMinLive = heap0, ring0, pf0 }()

	seeds := []uint64{1, 2}
	run := func(heapCap, ringCap, prefetchMin int) MultiMetrics {
		sim.HeapInitCap, sim.RingInitCap, sim.PrefetchMinLive = heapCap, ringCap, prefetchMin
		mm, _, err := RunSeedsObserved(identityCfg(), seeds, 0)
		if err != nil {
			t.Fatal(err)
		}
		return mm
	}

	preallocated := run(1024, 1024, pf0)
	for _, g := range [][3]int{{1, 1, pf0}, {1024, 1, pf0}, {1, 1024, pf0}, {1, 1, 0}} {
		if grown := run(g[0], g[1], g[2]); !reflect.DeepEqual(grown, preallocated) {
			t.Fatalf("container geometry leaked into results:\nheap/ring caps, prefetch gate %v: %+v\ncaps 1024/1024:                 %+v",
				g, grown, preallocated)
		}
	}
}
