package trafgen

import (
	"math"

	"eac/internal/sim"
	"eac/internal/stats"
)

// Video is a synthetic variable-bit-rate video source standing in for the
// Star Wars MPEG trace of Garrett & Willinger (SIGCOMM '94), which is not
// redistributable. It emits one frame per frame interval; frame sizes are
// lognormal marginals modulated by a slowly varying scene level with
// Pareto-distributed scene lengths, which yields the bursty,
// long-range-dependent byte process that the paper's experiment feeds
// through a token-bucket reshaper. Frames are packetized into fixed-size
// packets spread evenly across the frame interval.
//
// Defaults approximate the published trace statistics: 24 frames/s, mean
// rate ~360 kb/s, peak/mean ratio well above 5.
type Video struct {
	s       *sim.Sim
	rng     *stats.RNG
	emit    FlowEmit
	id      int // emit's id argument
	pktSize int

	frameHz   float64
	meanBps   float64
	sigma     float64 // lognormal shape of per-frame noise
	sceneSig  float64 // lognormal shape of scene levels
	sceneMean float64 // mean scene length, seconds

	sceneLevel float64
	sceneEnd   sim.Time

	ev       *sim.Event
	pending  int // packets left in current frame
	gap      sim.Time
	frameEnd sim.Time
	active   bool
}

// NewVideo returns a synthetic video source with the default Star Wars-like
// parameters, emitting pktSize-byte packets as id.
func NewVideo(s *sim.Sim, rng *stats.RNG, pktSize int, emit FlowEmit, id int) *Video {
	v := &Video{
		s: s, rng: rng, emit: emit, id: id, pktSize: pktSize,
		frameHz:   24,
		meanBps:   360e3,
		sigma:     0.45,
		sceneSig:  0.6,
		sceneMean: 2.0,
	}
	v.ev = sim.NewEvent(v.tick)
	return v
}

// lognormal returns a lognormal variate with unit mean and shape sigma.
func (v *Video) lognormal(sigma float64) float64 {
	// Box-Muller from two uniforms.
	u1 := 1.0 - v.rng.Float64()
	u2 := v.rng.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(sigma*z - sigma*sigma/2)
}

// Start implements Source.
func (v *Video) Start(now sim.Time) {
	if v.active {
		return
	}
	v.active = true
	// Discard any frame interrupted by a previous Stop so the restarted
	// source begins at a fresh frame boundary.
	v.pending = 0
	v.newScene(now)
	v.s.Schedule(v.ev, now)
}

// Stop implements Source.
func (v *Video) Stop() {
	if !v.active {
		return
	}
	v.active = false
	v.s.Cancel(v.ev)
}

func (v *Video) newScene(now sim.Time) {
	v.sceneLevel = v.lognormal(v.sceneSig)
	v.sceneEnd = now + sim.Seconds(v.rng.Pareto(1.5, v.sceneMean))
}

func (v *Video) tick(now sim.Time) {
	if v.pending > 0 {
		v.emit(now, v.id, v.pktSize)
		v.pending--
		if v.pending > 0 {
			v.s.Schedule(v.ev, now+v.gap)
		} else {
			// Wait out the rest of the frame interval.
			v.s.Schedule(v.ev, v.frameEnd)
		}
		return
	}
	// Frame boundary: draw the next frame.
	if now >= v.sceneEnd {
		v.newScene(now)
	}
	meanFrameBytes := v.meanBps / v.frameHz / 8
	frameBytes := meanFrameBytes * v.sceneLevel * v.lognormal(v.sigma)
	n := int(frameBytes/float64(v.pktSize)) + 1
	frameDur := sim.Seconds(1 / v.frameHz)
	v.pending = n
	v.gap = frameDur / sim.Time(n+1)
	v.frameEnd = now + frameDur
	v.s.Schedule(v.ev, now+v.gap)
}
