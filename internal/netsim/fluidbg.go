package netsim

import (
	"eac/internal/fluid"
	"eac/internal/sim"
	"eac/internal/stats"
)

// FluidBackground is the hybrid engine's per-link fluid attachment: bulk
// background traffic is carried as a piecewise-constant fluid rate F(t)
// instead of packets, and only foreground flows (probes and any packet-
// level data classes) traverse the queue. The attachment presents the
// foreground with the two effects the missing background packets would
// have had:
//
//   - residual capacity: the link serializes foreground packets at
//     C - F(t) (floored at (1-maxShare)*C), implemented by rescaling the
//     link's precomputed ns-per-bit factor whenever the rate changes, so
//     the packet hot path pays nothing;
//   - congestion probability: each arriving foreground packet is dropped
//     (and, for marking designs, marked) with the diffusion-approximation
//     probability of fluid.MarkProb evaluated at the instantaneous
//     background load, so probes measure the background they can no
//     longer collide with.
//
// Everything advances lazily at the event timestamps of rate changes
// (flow admitted, flow departed) and metric reads: F(t) is piecewise
// constant, so the delivered-bits integral is exact with no per-tick
// events, and per-arrival work is two cached float compares plus at most
// two inline PRNG draws — the zero-alloc steady-state contract of the
// packet path is untouched. The real VirtualQueue marker, when attached,
// keeps handling foreground-on-foreground marking; the fluid signal is
// OR-ed in, decomposing total congestion into a packet-measured
// foreground part and an analytic background part.
//
// A FluidBackground is single-goroutine state owned by one link (shards
// never share one); attach with Attach, which also rescales the link.
type FluidBackground struct {
	// Model is the queue approximation for the physical buffer; the mark
	// signal of marking designs always uses the virtual-queue model.
	Model fluid.QueueModel
	// BufferPkts is the physical buffer depth shown to the queue model.
	BufferPkts int
	// VQFactor is the virtual queue's service-rate fraction (the marking
	// signal sees load/VQFactor), matching the link's real Marker.
	VQFactor float64
	// Marking enables the analytic mark signal (ECN designs). When false
	// (pure drop designs) fluid congestion only drops.
	Marking bool
	// VDropProbes mirrors Link.VQDropProbes: a probe the fluid signal
	// would mark is dropped instead, data packets are still marked.
	VDropProbes bool

	link  *Link
	bps   float64  // offered background rate
	lastT sim.Time // time of the last integral advance

	deliveredBits float64 // exact integral of the delivered fluid rate
	offeredBits   float64 // exact integral of the offered fluid rate

	pDrop, pMark float64    // current per-arrival probabilities (for obs)
	dropP, markP [2]float64 // per-Kind cached thresholds
	rng          *stats.RNG
}

// maxShare caps the background's share of the link: the foreground always
// keeps at least (1-maxShare)*C of serialization capacity. It is typed so
// that 1-maxShare is the float64 difference (0.050000000000000044), not
// the exact 0.05 an untyped constant would fold to.
const maxShare float64 = 0.95

// NewFluidBackground attaches a fluid background to l with the given
// congestion model and a dedicated deterministic stream (seed, label pair
// per the stats stream discipline), rescaling the link for the initial
// (zero) background rate. BufferPkts zero defaults to 400; VQFactor
// defaults to 1 and can be overridden before traffic starts.
func NewFluidBackground(l *Link, model fluid.QueueModel, bufferPkts int, rng *stats.RNG) *FluidBackground {
	bg := &FluidBackground{Model: model, BufferPkts: bufferPkts}
	if bg.BufferPkts == 0 {
		bg.BufferPkts = 400
	}
	bg.VQFactor = 1
	bg.rng = rng
	bg.attach(l)
	return bg
}

func (bg *FluidBackground) attach(l *Link) {
	bg.link = l
	l.Bg = bg
	bg.recompute()
}

// Rate returns the current offered background rate in bits/s.
func (bg *FluidBackground) Rate() float64 { return bg.bps }

// PDrop and PMark return the current per-arrival congestion
// probabilities, for observability sampling.
func (bg *FluidBackground) PDrop() float64 { return bg.pDrop }
func (bg *FluidBackground) PMark() float64 { return bg.pMark }

// Congestion returns the combined probability that a foreground data
// packet is dropped or marked by the fluid signal — the single number
// observability samples as the background's congestion state.
func (bg *FluidBackground) Congestion() float64 { return bg.pDrop + (1-bg.pDrop)*bg.pMark }

// Add changes the offered background rate by delta bits/s (negative to
// remove a departing flow) at time now, advancing the integrals to now
// first and rescaling the link's residual capacity — after syncing the link,
// so that a transmission it has yet to start before now is timed at the old rate.
func (bg *FluidBackground) Add(now sim.Time, delta float64) {
	bg.link.sync(now)
	bg.advance(now)
	bg.bps += delta
	if bg.bps < 0 {
		// Guard against float drift when the last flow departs.
		bg.bps = 0
	}
	bg.recompute()
}

// advance accumulates the offered- and delivered-bit integrals up to now.
func (bg *FluidBackground) advance(now sim.Time) {
	if now <= bg.lastT {
		return
	}
	dt := (now - bg.lastT).Sec()
	bg.lastT = now
	if bg.bps <= 0 {
		return
	}
	bg.offeredBits += bg.bps * dt
	bg.deliveredBits += bg.delivered() * dt
}

// delivered returns the instantaneous delivered fluid rate B*(1-loss).
func (bg *FluidBackground) delivered() float64 {
	c := bg.link.RateBps
	loss := fluid.MarkProb(bg.Model, bg.bps/c, bg.BufferPkts)
	return bg.bps * (1 - loss)
}

// DeliveredBits advances to now and returns the delivered-bit integral
// since the last ResetWindow.
func (bg *FluidBackground) DeliveredBits(now sim.Time) float64 {
	bg.advance(now)
	return bg.deliveredBits
}

// OfferedBits advances to now and returns the offered-bit integral since
// the last ResetWindow.
func (bg *FluidBackground) OfferedBits(now sim.Time) float64 {
	bg.advance(now)
	return bg.offeredBits
}

// ResetWindow advances to now and zeroes the integrals; the runner calls
// it at the warmup boundary alongside LinkStats.Reset.
func (bg *FluidBackground) ResetWindow(now sim.Time) {
	bg.advance(now)
	bg.deliveredBits, bg.offeredBits = 0, 0
}

// recompute refreshes the congestion probabilities and the link's
// residual serialization rate after a rate change.
func (bg *FluidBackground) recompute() {
	l := bg.link
	c := l.RateBps
	rho := bg.bps / c
	bg.pDrop = fluid.MarkProb(bg.Model, rho, bg.BufferPkts)
	bg.pMark = 0
	if bg.Marking {
		bg.pMark = fluid.MarkProb(fluid.QueueVirtual, rho/bg.VQFactor, bg.BufferPkts)
	}

	// Residual capacity: what the delivered fluid leaves behind, floored
	// so the foreground always makes progress.
	residual := c - bg.bps*(1-bg.pDrop)
	if floor := (1 - maxShare) * c; residual < floor {
		residual = floor
	}
	l.nsPerBit = float64(sim.Second) / residual

	// Per-kind thresholds. Drop designs drop both kinds at pDrop; marking
	// designs additionally mark survivors at pMark; virtual dropping
	// folds a probe's mark fate into its drop probability.
	pd, pm := bg.pDrop, bg.pMark
	bg.dropP[Data], bg.markP[Data] = pd, pm
	if bg.VDropProbes {
		bg.dropP[Probe], bg.markP[Probe] = pd+(1-pd)*pm, 0
	} else {
		bg.dropP[Probe], bg.markP[Probe] = pd, pm
	}
}

// arrival rolls the congestion dice for one foreground packet. It is the
// only per-packet hook: no allocation, no integral work.
func (bg *FluidBackground) arrival(k Kind) (drop, mark bool) {
	pd, pm := bg.dropP[k], bg.markP[k]
	if pd == 0 && pm == 0 {
		return false, false
	}
	if pd > 0 && bg.rng.Float64() < pd {
		return true, false
	}
	if pm > 0 && bg.rng.Float64() < pm {
		return false, true
	}
	return false, false
}
