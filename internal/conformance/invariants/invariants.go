// Package invariants provides a reusable Checker for structural
// properties the simulator must never violate, regardless of
// configuration or input: event timestamps are monotone, queue depth
// never exceeds the buffer, packets are conserved (arrivals = departures
// + drops + backlog), virtual-queue backlog is never negative, and token
// buckets never go negative or overfill. The checker is threaded through
// the test builds of internal/sim and internal/netsim and through the
// fuzz targets; it is deliberately free of testing.T so fuzzers and
// long-running soak harnesses can use it too.
package invariants

import (
	"fmt"

	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Checker accumulates invariant violations. The zero value is ready to
// use. It is not safe for concurrent use; give each simulation run its
// own checker, like every other per-run structure.
type Checker struct {
	violations []string
	// Limit caps the recorded violations (0 = 64): one broken invariant
	// in a packet loop would otherwise record millions of lines.
	Limit int

	dropped int // violations beyond Limit
}

// Violationf records one violation.
func (c *Checker) Violationf(format string, args ...any) {
	limit := c.Limit
	if limit == 0 {
		limit = 64
	}
	if len(c.violations) >= limit {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Violations returns the recorded violations.
func (c *Checker) Violations() []string { return c.violations }

// Err returns nil when no invariant was violated, or one error
// summarizing every recorded violation.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	msg := ""
	for _, v := range c.violations {
		msg += "\n  " + v
	}
	if c.dropped > 0 {
		msg += fmt.Sprintf("\n  ... and %d more", c.dropped)
	}
	return fmt.Errorf("invariants: %d violation(s):%s", len(c.violations), msg)
}

// Clock watches a stream of event timestamps for monotonicity (the
// discrete-event contract: the simulator never runs time backwards).
type Clock struct {
	c    *Checker
	name string
	last sim.Time
	seen bool
}

// Clock returns a named monotone-time watcher.
func (c *Checker) Clock(name string) *Clock {
	return &Clock{c: c, name: name}
}

// Observe feeds one timestamp to the watcher.
func (w *Clock) Observe(now sim.Time) {
	if w.seen && now < w.last {
		w.c.Violationf("%s: time ran backwards: %v after %v", w.name, now, w.last)
	}
	w.last = now
	w.seen = true
}

// GuardedDiscipline wraps a netsim.Discipline and checks, on every
// operation: depth stays within [0, cap], enqueue drop semantics are
// well-formed, arrival times are monotone, and packets are conserved —
// every packet that entered either left via Dequeue, was reported
// dropped, or is still in the backlog.
type GuardedDiscipline struct {
	Inner netsim.Discipline

	c     *Checker
	name  string
	cap   int
	clock *Clock

	// pushout is set when Inner is a PriorityPushout, enabling the
	// band-sum check: its shared `total` counter must equal the sum of
	// the per-band queue lengths after every operation (the pushout
	// branch swaps a victim for the arrival and must leave `total`
	// untouched — an easy compensation to break in a refactor).
	pushout *netsim.PriorityPushout

	enq, deq, drop int64
}

// Guard wraps d, whose buffer capacity is capPackets.
func (c *Checker) Guard(name string, d netsim.Discipline, capPackets int) *GuardedDiscipline {
	g := &GuardedDiscipline{Inner: d, c: c, name: name, cap: capPackets, clock: c.Clock(name + " arrivals")}
	g.pushout, _ = d.(*netsim.PriorityPushout)
	return g
}

// Enqueue implements netsim.Discipline.
func (g *GuardedDiscipline) Enqueue(now sim.Time, p *netsim.Packet) *netsim.Packet {
	g.clock.Observe(now)
	before := g.Inner.Len()
	dropped := g.Inner.Enqueue(now, p)
	after := g.Inner.Len()
	g.enq++
	if dropped != nil {
		g.drop++
	}
	switch {
	case dropped == p:
		if after != before {
			g.c.Violationf("%s: rejected arrival changed depth %d -> %d", g.name, before, after)
		}
	case dropped != nil: // push-out: arrival in, victim out
		if after != before {
			g.c.Violationf("%s: push-out changed depth %d -> %d", g.name, before, after)
		}
	default:
		if after != before+1 {
			g.c.Violationf("%s: accepted arrival moved depth %d -> %d", g.name, before, after)
		}
	}
	g.checkDepth(after)
	g.checkConservation()
	return dropped
}

// Dequeue implements netsim.Discipline.
func (g *GuardedDiscipline) Dequeue() *netsim.Packet {
	before := g.Inner.Len()
	p := g.Inner.Dequeue()
	after := g.Inner.Len()
	if p == nil {
		if before != 0 {
			g.c.Violationf("%s: Dequeue returned nil with %d queued", g.name, before)
		}
	} else {
		g.deq++
		if after != before-1 {
			g.c.Violationf("%s: dequeue moved depth %d -> %d", g.name, before, after)
		}
	}
	g.checkDepth(after)
	g.checkConservation()
	return p
}

// Len implements netsim.Discipline.
func (g *GuardedDiscipline) Len() int { return g.Inner.Len() }

func (g *GuardedDiscipline) checkDepth(n int) {
	if n < 0 {
		g.c.Violationf("%s: negative depth %d", g.name, n)
	}
	if n > g.cap {
		g.c.Violationf("%s: depth %d exceeds buffer %d", g.name, n, g.cap)
	}
}

func (g *GuardedDiscipline) checkConservation() {
	if backlog := g.enq - g.deq - g.drop; backlog != int64(g.Inner.Len()) {
		g.c.Violationf("%s: conservation: enq=%d deq=%d drop=%d backlog=%d but Len=%d",
			g.name, g.enq, g.deq, g.drop, backlog, g.Inner.Len())
	}
	if g.pushout != nil {
		sum := 0
		for b := 0; b < netsim.NumBands; b++ {
			sum += g.pushout.BandLen(b)
		}
		if sum != g.pushout.Len() {
			g.c.Violationf("%s: pushout total %d != band sum %d", g.name, g.pushout.Len(), sum)
		}
	}
}

// Counts returns (enqueued, dequeued, dropped) as seen by the guard.
func (g *GuardedDiscipline) Counts() (enq, deq, drop int64) { return g.enq, g.deq, g.drop }

// CheckVirtualQueue verifies the shadow queue's per-band backlog is
// non-negative and its total does not exceed capBytes.
func (c *Checker) CheckVirtualQueue(name string, v *netsim.VirtualQueue, capBytes int64) {
	var total int64
	for b := 0; b < netsim.NumBands; b++ {
		bl := v.Backlog(b)
		if bl < 0 {
			c.Violationf("%s: band %d shadow backlog %d < 0", name, b, bl)
		}
		total += bl
	}
	if total != v.TotalBacklog() {
		c.Violationf("%s: TotalBacklog %d != band sum %d", name, v.TotalBacklog(), total)
	}
	if total > capBytes {
		c.Violationf("%s: shadow backlog %d exceeds capacity %d", name, total, capBytes)
	}
}

// CheckTokenBucket verifies the bucket level stays within [0, capBytes].
func (c *Checker) CheckTokenBucket(name string, tb *trafgen.TokenBucket, capBytes float64) {
	tok := tb.Tokens()
	if tok < 0 {
		c.Violationf("%s: token level %v < 0", name, tok)
	}
	if tok > capBytes {
		c.Violationf("%s: token level %v exceeds depth %v", name, tok, capBytes)
	}
}

// CheckLinkQuiescent verifies packet conservation at a link drained by
// now: after the simulation has run to completion (empty queue, idle
// transmitter, empty pipe), every arrived packet must have been either
// sent or dropped. Only valid if the link's stats were never Reset.
func (c *Checker) CheckLinkQuiescent(now sim.Time, l *netsim.Link) {
	if l.Busy(now) || l.QueueLen(now) != 0 {
		c.Violationf("%s: not quiescent (busy=%v queued=%d)", l.Name, l.Busy(now), l.QueueLen(now))
		return
	}
	st := l.StatsAt(now)
	for k := netsim.Data; k <= netsim.Probe; k++ {
		arr := st.Arrived[k]
		out := st.SentPkts[k] + st.Dropped[k]
		if arr != out {
			c.Violationf("%s: %v conservation: arrived=%d but sent+dropped=%d", l.Name, k, arr, out)
		}
	}
}
