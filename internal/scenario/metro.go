package scenario

import (
	"fmt"

	"eac/internal/sim"
	"eac/internal/trafgen"
)

// MetroStarOptions sizes the metro star-of-chains topology.
type MetroStarOptions struct {
	// Chains is the number of access chains hanging off the hub
	// (default 8).
	Chains int
	// Hops is the number of links per chain (default 3).
	Hops int
	// Hosts is the target steady-state concurrent host (flow) population
	// across the whole star (default 10000). Link rates and the
	// prepopulation knob are derived from it; over a paper-length run the
	// total number of distinct hosts is duration/tau times larger, which
	// is how the preset reaches the 10⁵–10⁶-host operating points.
	Hosts int
}

// WithDefaults resolves the zero dimensions to the preset's defaults.
func (o MetroStarOptions) WithDefaults() MetroStarOptions {
	if o.Chains == 0 {
		o.Chains = 8
	}
	if o.Hops == 0 {
		o.Hops = 3
	}
	if o.Hosts == 0 {
		o.Hosts = 10000
	}
	return o
}

// MetroStar builds the large-topology preset: a metro star-of-chains. Link
// 0 is the hub (core uplink); each of Chains access chains is Hops links
// long, ordered access edge → core. Every chain offers two EXP1 classes:
// an "up" class traversing the whole chain and then the hub, and a "back"
// class traversing the chain in the reverse direction. Rates are sized so
// each access link carries its share of the Hosts population at roughly
// 0.9 load — inside the admission-controlled operating region — and
// arrivals sustain that population against the 300 s mean lifetime.
//
// The topology exists to exercise the sharded executor at scale: every
// link has a ≥2 ms propagation delay (the conservative lookahead floor),
// and the chain structure gives a contiguous link partition real
// cross-shard traffic in both directions. Duration and Warmup are left at
// the paper defaults; benchmarks and experiments override them.
func MetroStar(opts MetroStarOptions) Config {
	o := opts.WithDefaults()
	avg := trafgen.EXP1.AvgRate // 128 kb/s per host
	perChain := float64(o.Hosts) / float64(o.Chains)
	// Each chain link carries the chain's full up+back population; the hub
	// carries every chain's up half.
	accessRate := perChain * avg / 0.9
	hubRate := float64(o.Chains) * (perChain / 2) * avg / 0.9

	cfg := Config{
		Name:  fmt.Sprintf("metro-star-%dx%d-%dhosts", o.Chains, o.Hops, o.Hosts),
		Links: make([]LinkSpec, 1+o.Chains*o.Hops),
	}
	cfg.Links[0] = LinkSpec{RateBps: hubRate, Delay: 5 * sim.Millisecond, BufferPkts: 600}
	for i := 1; i < len(cfg.Links); i++ {
		cfg.Links[i] = LinkSpec{RateBps: accessRate, Delay: 2 * sim.Millisecond, BufferPkts: 400}
	}
	for c := 0; c < o.Chains; c++ {
		first := 1 + c*o.Hops
		up := make([]int, 0, o.Hops+1)
		back := make([]int, 0, o.Hops)
		for h := 0; h < o.Hops; h++ {
			up = append(up, first+h)
			back = append(back, first+o.Hops-1-h)
		}
		up = append(up, 0) // chain → hub
		cfg.Classes = append(cfg.Classes,
			ClassSpec{Name: fmt.Sprintf("up-%d", c), Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: up},
			ClassSpec{Name: fmt.Sprintf("back-%d", c), Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: back},
		)
	}
	// Sustain ~Hosts concurrent flows: arrivals at rate Hosts/lifetime.
	cfg.LifetimeSec = 300
	cfg.InterArrival = cfg.LifetimeSec / float64(o.Hosts)
	// PrepopulateUtil is defined against link 0 (the hub); solve it so the
	// seeded population is the full Hosts target spread across the star.
	cfg.PrepopulateUtil = float64(o.Hosts) * avg / hubRate
	return cfg
}
