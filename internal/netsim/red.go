package netsim

import (
	"eac/internal/sim"
	"eac/internal/stats"
)

// REDConfig parameterizes a RED queue (Floyd & Jacobson 1993). Zero
// fields default to the classic recommendations relative to the buffer
// size: MinTh = cap/12 (at least 5), MaxTh = 3*MinTh, MaxP = 0.02,
// Wq = 0.002.
type REDConfig struct {
	MinTh, MaxTh float64 // average-queue thresholds, packets
	MaxP         float64 // drop probability at MaxTh
	Wq           float64 // EWMA weight
	// MeanPktTime is the typical transmission time of one packet, used
	// to decay the average while the queue is idle. Defaults to 1 ms.
	MeanPktTime sim.Time
}

// WithDefaults fills unset fields for a buffer of capPackets.
func (c REDConfig) WithDefaults(capPackets int) REDConfig {
	if c.MinTh == 0 {
		c.MinTh = float64(capPackets) / 12
		if c.MinTh < 5 {
			c.MinTh = 5
		}
	}
	if c.MaxTh == 0 {
		c.MaxTh = 3 * c.MinTh
	}
	if c.MaxP == 0 {
		c.MaxP = 0.02
	}
	if c.Wq == 0 {
		c.Wq = 0.002
	}
	if c.MeanPktTime == 0 {
		c.MeanPktTime = sim.Millisecond
	}
	return c
}

// RED is the Random Early Detection discipline: it maintains an EWMA of
// the queue length and drops arrivals probabilistically between MinTh and
// MaxTh (with the count correction that spaces drops evenly), and always
// beyond MaxTh. The paper (Section 3.1) notes the admission-controlled
// queues could be drop-tail or RED and uses drop-tail "for ease of
// simulation" while conjecturing the choice does not affect the results —
// BenchmarkAblationRED tests that conjecture.
type RED struct {
	cfg REDConfig
	cap int
	q   sim.Ring[*Packet]
	rng *stats.RNG

	avg        float64
	count      int // arrivals since the last early drop
	lastArr    sim.Time
	qAtLastArr int
	everActive bool
}

// NewRED returns a RED queue with a hard buffer of capPackets.
func NewRED(capPackets int, cfg REDConfig, rng *stats.RNG) *RED {
	if capPackets <= 0 {
		panic("netsim: NewRED requires positive capacity")
	}
	if rng == nil {
		panic("netsim: NewRED requires an RNG")
	}
	return &RED{cfg: cfg.WithDefaults(capPackets), cap: capPackets, rng: rng, count: -1}
}

// Avg returns the current average queue estimate (for tests).
func (r *RED) Avg() float64 { return r.avg }

// Enqueue implements Discipline.
func (r *RED) Enqueue(now sim.Time, p *Packet) *Packet {
	// Update the average. While the queue was idle the average decays as
	// if m small packets had been serviced; the idle period is estimated
	// from the last arrival, minus the time to drain what was then queued.
	if r.q.Len() == 0 && r.everActive {
		drain := sim.Time(r.qAtLastArr+1) * r.cfg.MeanPktTime
		idle := now - r.lastArr - drain
		if idle > 0 {
			m := float64(idle) / float64(r.cfg.MeanPktTime)
			r.avg *= pow1mw(r.cfg.Wq, m)
		}
	}
	r.lastArr = now
	r.qAtLastArr = r.q.Len()
	r.avg += r.cfg.Wq * (float64(r.q.Len()) - r.avg)

	drop := false
	switch {
	case r.q.Len() >= r.cap:
		drop = true // hard buffer limit
	case r.avg >= r.cfg.MaxTh:
		drop = true
		r.count = 0
	case r.avg >= r.cfg.MinTh:
		r.count++
		pb := r.cfg.MaxP * (r.avg - r.cfg.MinTh) / (r.cfg.MaxTh - r.cfg.MinTh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa >= 1 {
			pa = 1
		}
		if r.rng.Bool(pa) {
			drop = true
			r.count = 0
		}
	default:
		r.count = -1
	}
	if drop {
		return p
	}
	r.q.Push(p)
	r.everActive = true
	return nil
}

// pow1mw computes (1-w)^m without importing math for a hot path: m is
// typically small; fall back to exp/log via iterated squaring is not
// needed — a simple loop over the integer part with a linear correction
// suffices for RED's idle decay.
func pow1mw(w, m float64) float64 {
	base := 1 - w
	result := 1.0
	n := int(m)
	if n > 10000 {
		return 0
	}
	for i := 0; i < n; i++ {
		result *= base
	}
	// Linear interpolation for the fractional part.
	result *= 1 - w*(m-float64(n))
	if result < 0 {
		return 0
	}
	return result
}

// Dequeue implements Discipline.
func (r *RED) Dequeue() *Packet { return r.q.Pop() }

// Len implements Discipline.
func (r *RED) Len() int { return r.q.Len() }
