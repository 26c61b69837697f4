// Package trafgen implements the traffic sources of Table 1 of the paper:
// exponential and Pareto on-off sources (EXP1-EXP4, POO1), a constant-bit-
// rate source (used for probe streams), a synthetic self-similar VBR video
// source standing in for the Star Wars MPEG trace, and the token-bucket
// reshaper that drops nonconforming packets.
package trafgen

import (
	"eac/internal/sim"
	"eac/internal/stats"
)

// FlowEmit receives each generated packet as (time, id, size in bytes): one
// callback serves every source, and id — given when the source was built —
// says which is emitting. The flow layer stamps sequence numbers and routes.
type FlowEmit func(now sim.Time, id, size int)

// EmitFunc is a FlowEmit without the id, for a source built alone (NewCBR,
// Preset.New).
type EmitFunc func(now sim.Time, size int)

// Source is a packet generator that can be started and stopped. Sources
// are single-shot per flow: Start begins emission, Stop ends it for good.
// A Maker's source goes back to its Maker on Stop, which may hand it to the
// next flow, so its owner drops it there.
type Source interface {
	Start(now sim.Time)
	Stop()
}

// CBR emits fixed-size packets at a constant bit rate.
type CBR struct {
	s       *sim.Sim
	pktSize int
	iv      sim.Time // per-packet interval, precomputed from rate and size
	lane    sim.Lane // the simulator's lane for ticks iv apart
	emit    FlowEmit
	id      int // emit's id argument
	ev      sim.Event
	active  bool
}

// NewCBR returns a constant-bit-rate source.
func NewCBR(s *sim.Sim, rateBps float64, pktSize int, emit EmitFunc) *CBR {
	return new(CBR).Init(s, rateBps, pktSize, func(now sim.Time, _, size int) { emit(now, size) }, 0)
}

// Init builds, in place, a CBR that emits as id. Call it once, at the CBR's
// final address.
func (c *CBR) Init(s *sim.Sim, rateBps float64, pktSize int, emit FlowEmit, id int) *CBR {
	return c.InitShared(s, rateBps, pktSize, emit, id, c.Tick)
}

// InitShared is Init for a CBR whose owner runs the ticks of many sources
// through one callback, tick, which must call Tick on the source whose id
// Sim.Arg returns: the source then costs no closure of its own (a prober
// arena's probe streams).
func (c *CBR) InitShared(s *sim.Sim, rateBps float64, pktSize int, emit FlowEmit, id int, tick func(sim.Time)) *CBR {
	*c = CBR{s: s, emit: emit, id: id}
	c.Reinit(rateBps, pktSize)
	// A stream head: Start fires the first tick at now and every later one
	// goes through the lane, so the event never waits among the timers.
	c.ev.InitStream(tick)
	c.ev.SetArg(uint32(id))
	return c
}

// SetRate changes the emission rate; it takes effect from the next packet.
func (c *CBR) SetRate(rateBps float64) {
	c.iv = Interval(rateBps, c.pktSize)
	c.lane = c.s.Lane(c.iv)
}

// Interval is the time between the packets of a stream of pktSize-byte
// packets at rateBps, kept on the clock: at least 1 ns, so a rate too high
// to resolve still advances time, and at most 2⁶² ns (146 years: past the
// end of any run, and far enough inside the clock's range that now plus it
// cannot overflow), so a rate too low to send twice in a run — zero
// included, as in the first stages of a deep slow-start ramp — sends once.
func Interval(rateBps float64, pktSize int) sim.Time {
	iv := float64(pktSize*8) / rateBps * float64(sim.Second)
	return sim.Time(max(1, min(iv, 1<<62)))
}

// Reinit re-parameterizes an idle CBR for another use, keeping its event
// and emit callback (the run-state reuse path recycles prober sources this
// way instead of allocating a CBR per admission attempt).
func (c *CBR) Reinit(rateBps float64, pktSize int) {
	if rateBps <= 0 || pktSize <= 0 {
		panic("trafgen: CBR requires positive rate and packet size")
	}
	if c.active {
		panic("trafgen: CBR.Reinit while active")
	}
	c.pktSize = pktSize
	c.SetRate(rateBps)
}

// Forget clears the source's running state without touching any simulator.
// Valid only across a Sim.Reset (see sim.Event.Forget); use Stop otherwise.
func (c *CBR) Forget() {
	c.active = false
	c.ev.Forget()
}

// Start implements Source. The first packet is emitted immediately.
func (c *CBR) Start(now sim.Time) {
	if c.active {
		return
	}
	c.active = true
	c.s.Schedule(&c.ev, now)
}

// Stop implements Source.
func (c *CBR) Stop() {
	if !c.active {
		return
	}
	c.active = false
	c.s.Cancel(&c.ev)
}

// Tick emits one packet and schedules the next: the CBR's event callback.
func (c *CBR) Tick(now sim.Time) {
	c.emit(now, c.id, c.pktSize)
	// emit may deliver synchronously (zero-delay routes) and the receiver
	// may Stop this source — e.g. a prober rejecting on the packet it just
	// sent; rescheduling unconditionally would tick forever.
	if c.active {
		c.s.ScheduleLane(c.lane, &c.ev, now+c.iv)
	}
}

// OnOff alternates between an on state, during which it emits fixed-size
// packets at the burst rate, and a silent off state. State holding times
// are drawn from the configured samplers (exponential or Pareto). Sources
// are built by a preset's Maker (onOffMaker), which holds what they share.
type OnOff struct {
	mk     *onOffMaker
	id     int       // emit's id argument
	next   *OnOff    // mk's free list while stopped
	ev     sim.Event // next packet while on, or on-transition while off
	onEnd  sim.Time
	on     bool
	active bool
}

// expDur and paretoDur are the duration samplers of the on-off sources: they
// capture an RNG and a mean, nothing of the source that calls them.
func expDur(rng *stats.RNG, mean float64) func() float64 {
	return func() float64 { return rng.Exp(mean) }
}

func paretoDur(rng *stats.RNG, shape, mean float64) func() float64 {
	return func() float64 { return rng.Pareto(shape, mean) }
}

// sourceSlab is the block size of the sources a Maker carves (cf. netsim's
// packet slabs).
const sourceSlab = 64

// onOffMaker builds the on-off sources of one kind and holds everything
// they share — simulator, samplers, emit callback, lane — once. Sources are
// carved from slabs with one tick callback each, which finds the source by
// its event's argument: a source costs a 64th of two allocations, not a
// struct, two samplers and a tick and an emit closure per flow (at MetroStar
// scale, most of a run's allocations). Stop puts a source on the free list,
// which make pops before it carves, so a run holds as many sources as flows
// send at once, not one per flow.
type onOffMaker struct {
	s             *sim.Sim
	pktSize       int
	iv            sim.Time // per-packet interval at the burst rate, precomputed
	lane          sim.Lane // the simulator's lane for ticks iv apart
	onDur, offDur func() float64
	emit          FlowEmit
	rng           *stats.RNG

	slab []OnOff // what is left of the current block
	tick func(sim.Time)
	free *OnOff
}

// newOnOffMaker returns the Maker of on-off sources of one kind.
func newOnOffMaker(s *sim.Sim, rng *stats.RNG, burstBps float64, pktSize int, onDur, offDur func() float64, emit FlowEmit) Maker {
	if burstBps <= 0 || pktSize <= 0 {
		panic("trafgen: an on-off source requires positive rate and packet size")
	}
	iv := Interval(burstBps, pktSize)
	m := &onOffMaker{s: s, pktSize: pktSize, iv: iv, lane: s.Lane(iv), onDur: onDur, offDur: offDur, emit: emit, rng: rng}
	return m.make
}

// make hands out a stopped source, or else carves one, emitting as id. A
// recycled source keeps its event: a tombstone it left behind names the
// event's old sequence number, so it stays dead (sim.Sim.Cancel).
func (m *onOffMaker) make(id int) Source {
	o := m.free
	if o != nil {
		m.free, o.next = o.next, nil
	} else {
		if len(m.slab) == 0 {
			blk, s := make([]OnOff, sourceSlab), m.s
			m.slab, m.tick = blk, func(now sim.Time) { blk[s.Arg()].tick(now) }
		}
		o = &m.slab[0]
		o.mk = m
		o.ev.Init(m.tick)
		o.ev.SetArg(uint32(sourceSlab - len(m.slab)))
		m.slab = m.slab[1:]
	}
	o.id = id
	return o
}

// Start implements Source. The source begins in the on or off state with
// probability proportional to the state mean durations, for approximate
// stationarity from the first packet.
func (o *OnOff) Start(now sim.Time) {
	if o.active {
		return
	}
	o.active = true
	// Estimate state probabilities from single samples of each sampler;
	// for the exponential case this matches the stationary distribution
	// in expectation and keeps the code sampler-agnostic.
	on := o.mk.onDur()
	off := o.mk.offDur()
	if o.mk.rng.Bool(on / (on + off)) {
		o.enterOn(now)
	} else {
		o.enterOff(now)
	}
}

// Stop implements Source, and hands the source back to its maker.
func (o *OnOff) Stop() {
	if !o.active {
		return
	}
	o.active = false
	o.mk.s.Cancel(&o.ev)
	o.next, o.mk.free = o.mk.free, o
}

func (o *OnOff) enterOn(now sim.Time) {
	o.on = true
	o.onEnd = now + sim.Seconds(o.mk.onDur())
	o.mk.s.Schedule(&o.ev, now) // first packet immediately
}

func (o *OnOff) enterOff(now sim.Time) {
	o.on = false
	o.mk.s.Schedule(&o.ev, now+sim.Seconds(o.mk.offDur()))
}

func (o *OnOff) tick(now sim.Time) {
	if !o.on {
		o.enterOn(now)
		return
	}
	if now >= o.onEnd {
		o.enterOff(now)
		return
	}
	m := o.mk
	m.emit(now, o.id, m.pktSize)
	if !o.active { // stopped from inside emit (see CBR.Tick)
		return
	}
	next := now + m.iv
	if next > o.onEnd {
		next = o.onEnd // fires the off transition (off the lane if that breaks its order)
	}
	m.s.ScheduleLane(m.lane, &o.ev, next)
}
