package scenario

import (
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/sim/shard"
)

// This file is the partition a run kernel executes (runner.go): which
// domain each link and class lives on, and the hop that carries a packet
// across a domain border.
//
// Decomposition. Links are partitioned into contiguous index blocks, one
// block per domain. A class is owned by the domain of the first link on its
// path, so flow arrivals, sources, probers, and the terminating sink of a
// class are all local to its owner; a packet only leaves the owner's domain
// by crossing a boundary link, where a portal hop takes custody at
// transmission end and ships the packet to the downstream domain with the
// link's full propagation delay still ahead of it. That residual delay is
// the executor's lookahead window.
//
// Arrivals. The scenario is one aggregate Poisson arrival process with a
// class picked per arrival. Thinning a Poisson process yields independent
// Poisson processes, so each domain draws its own arrival stream at rate
// scaled by its owned share of the class weights and picks only among its
// own classes — identical in distribution at every K, though not
// variate-for-variate. Runs are therefore deterministic per K but only
// statistically equivalent across K; internal/conformance's envelopes pin
// that equivalence.

// effectiveShards returns the domain count K a resolved config runs with:
// Shards clamped to the link count, with 0 meaning 1. Whether the model
// can run that K is Config.Validate's to say.
func effectiveShards(c Config) int {
	k := c.Shards
	if k > len(c.Links) {
		k = len(c.Links)
	}
	if k < 2 {
		return 1
	}
	return k
}

// classPath returns a class's link path with the single-link default
// applied.
func classPath(cfg *Config, class int) []int {
	p := cfg.Classes[class].Path
	if len(p) == 0 {
		return []int{0}
	}
	return p
}

// shardPlan is the static partition of a config into k domains: which
// domain each link lives on, which links send packets across a border,
// which domain owns each class, and the resulting conservative window.
type shardPlan struct {
	k        int
	shardOf  []int
	boundary []bool
	owner    []int
	window   sim.Time
}

// planShards partitions a resolved, valid cfg's links into k contiguous
// blocks and derives the boundary set and window. Every link delay is
// positive there (Validate), so every boundary has lookahead.
func planShards(cfg *Config, k int) shardPlan {
	n := len(cfg.Links)
	p := shardPlan{
		k:        k,
		shardOf:  make([]int, n),
		boundary: make([]bool, n),
		owner:    make([]int, len(cfg.Classes)),
	}
	for i := 0; i < n; i++ {
		p.shardOf[i] = i * k / n
	}
	for c := range cfg.Classes {
		path := classPath(cfg, c)
		cur := p.shardOf[path[0]]
		p.owner[c] = cur
		for j := 1; j < len(path); j++ {
			s := p.shardOf[path[j]]
			if s != cur {
				p.boundary[path[j-1]] = true
				cur = s
			}
		}
		// The delivered packet returns to the owner's sink after the last
		// link; that is a crossing too when the path ends off-owner.
		if cur != p.owner[c] {
			p.boundary[path[len(path)-1]] = true
		}
	}
	w := sim.Time(0)
	for i, b := range p.boundary {
		if !b {
			continue
		}
		if d := cfg.Links[i].Delay; w == 0 || d < w {
			w = d
		}
	}
	if w == 0 {
		// No class path crosses a border: the shards never exchange
		// messages and any window is conservative. One window per run.
		w = cfg.Duration
		if w <= 0 {
			w = sim.Second
		}
	}
	p.window = w
	return p
}

// portal is the route hop at a shard border. The upstream boundary link
// hands the packet over at transmission end (ReceiveTxEnd); the portal
// stages it as a cross-shard message due after the propagation delay, and
// the destination shard's Deliver forwards it to the next route hop.
type portal struct {
	src *shard.Shard[*netsim.Packet]
	dst int
}

// Receive implements netsim.Receiver; a portal must only ever be reached
// through the boundary link's tx-end hand-off.
func (pt *portal) Receive(now sim.Time, p *netsim.Packet) {
	panic("scenario: portal reached without boundary hand-off")
}

// ReceiveTxEnd implements netsim.TxEndReceiver.
func (pt *portal) ReceiveTxEnd(txEnd, delay sim.Time, p *netsim.Packet) {
	pt.src.Send(pt.dst, txEnd+delay, p)
}
