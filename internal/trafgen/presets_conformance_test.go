package trafgen

import (
	"testing"

	"eac/internal/sim"
	"eac/internal/stats"
)

// emission is one reshaped packet, recorded for replay and window checks.
type emission struct {
	at   sim.Time
	size int
}

// recordStarWars runs the StarWars preset (synthetic video through the
// paper's (800 kb/s, 200 kb) reshaper) for the given duration and returns
// every packet that survived the reshaper.
func recordStarWars(seed uint64, dur sim.Time) []emission {
	s := sim.New()
	var out []emission
	src := StarWars.New(s, stats.NewStream(seed, "starwars-conformance"),
		func(now sim.Time, size int) { out = append(out, emission{now, size}) })
	src.Start(0)
	s.Run(dur)
	src.Stop()
	return out
}

// TestStarWarsReshaperWindowConformance checks the paper's reshaping claim
// at full strength: over EVERY window [t_i, t_j] between two output
// packets — not just prefixes from time zero — the reshaped stream stays
// within the (r, b) = (800 kb/s, 25000 B) token-bucket envelope
// b + r/8 * (t_j - t_i), counting both endpoint packets. The quadratic
// sweep over all O(n^2) windows is what makes this conformance, not a
// spot check.
func TestStarWarsReshaperWindowConformance(t *testing.T) {
	const (
		rate  = 800e3   // bits/s
		depth = 25000.0 // bytes
	)
	out := recordStarWars(11, 30*sim.Second)
	if len(out) < 1000 {
		t.Fatalf("only %d packets in 30 s; source too quiet for a meaningful check", len(out))
	}
	// Prefix sums: cum[k] = bytes of packets 0..k-1.
	cum := make([]float64, len(out)+1)
	for k, e := range out {
		cum[k+1] = cum[k] + float64(e.size)
	}
	for i := range out {
		for j := i; j < len(out); j++ {
			window := cum[j+1] - cum[i]
			envelope := depth + rate/8*(out[j].at-out[i].at).Sec() + 1e-6
			if window > envelope {
				t.Fatalf("window [%v, %v] carries %.0f bytes, envelope %.0f (packets %d..%d of %d)",
					out[i].at, out[j].at, window, envelope, i, j, len(out))
			}
		}
	}
	// The check is only meaningful if the reshaper actually bit: the raw
	// synthetic video peaks well above 800 kb/s, so some drops must occur.
	s := sim.New()
	tb := NewTokenBucket(rate, int(depth))
	src := NewVideo(s, stats.NewStream(11, "starwars-conformance"), 200, tb.Shape(func(sim.Time, int, int) {}), 0)
	src.Start(0)
	s.Run(30 * sim.Second)
	if tb.Dropped == 0 {
		t.Fatal("reshaper dropped nothing in 30 s; conformance was vacuous")
	}
}

// TestStarWarsDeterministicReplay pins the reproducibility contract the
// experiment engine depends on: the same seed replays the identical
// packet sequence (times and sizes), and a different seed diverges.
func TestStarWarsDeterministicReplay(t *testing.T) {
	a := recordStarWars(42, 10*sim.Second)
	b := recordStarWars(42, 10*sim.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, different packet counts: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverges at packet %d: %+v vs %+v", k, a[k], b[k])
		}
	}
	c := recordStarWars(43, 10*sim.Second)
	if len(c) == len(a) {
		same := true
		for k := range a {
			if a[k] != c[k] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds replayed the identical stream")
		}
	}
}
