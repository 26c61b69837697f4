// Package admission implements the paper's primary contribution: endpoint
// admission control. A host that wants to start a flow probes the network
// path at the flow's token-bucket rate r, measures the fraction of probe
// packets lost (or ECN-marked), and admits the flow only if that fraction
// is at or below an acceptance threshold epsilon.
//
// The package implements the four prototype designs of Section 3.1 — the
// cross product of congestion signal (packet drops vs. virtual-queue marks)
// and probe band (in-band, probes at data priority, vs. out-of-band, probes
// in a strictly lower priority band) — and the three probing algorithms:
// Simple (rate r for the whole probe period), Early Reject (rate r, with a
// per-interval rejection check), and Slow Start (rate ramping r/16, r/8,
// r/4, r/2, r across equal intervals).
package admission

import (
	"fmt"
	"slices"

	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Signal selects the congestion indication probes listen for.
type Signal uint8

// Congestion signals.
const (
	Drop Signal = iota // probe packet losses
	Mark               // virtual-queue ECN marks (plus any real losses)
	// VDrop is the "virtual dropping" variant of footnote 14: the router
	// uses the virtual queue to decide when probes are in trouble, but
	// instead of marking them it drops them, removing the need for ECN
	// bits while still giving early congestion signals. It requires
	// out-of-band probing — only a separate probe band lets the router
	// drop probe packets and not data packets.
	VDrop
)

func (sg Signal) String() string {
	switch sg {
	case Mark:
		return "mark"
	case VDrop:
		return "vdrop"
	default:
		return "drop"
	}
}

// Band selects which priority band probe packets travel in.
type Band uint8

// Probe bands.
const (
	InBand    Band = iota // probes share the data band
	OutOfBand             // probes in a strictly lower band than data
)

func (b Band) String() string {
	if b == OutOfBand {
		return "out-of-band"
	}
	return "in-band"
}

// ProberKind selects the probing algorithm of Section 3.1.
type ProberKind uint8

// Probing algorithms.
const (
	Simple ProberKind = iota
	EarlyReject
	SlowStart
)

func (k ProberKind) String() string {
	switch k {
	case EarlyReject:
		return "early-reject"
	case SlowStart:
		return "slow-start"
	default:
		return "simple"
	}
}

// Design is one of the four prototype endpoint designs.
type Design struct {
	Signal Signal
	Band   Band
}

func (d Design) String() string {
	return fmt.Sprintf("%s (%s)", d.Signal, d.Band)
}

// The four prototype designs evaluated throughout Section 4.
var (
	DropInBand    = Design{Drop, InBand}
	DropOutOfBand = Design{Drop, OutOfBand}
	MarkInBand    = Design{Mark, InBand}
	MarkOutOfBand = Design{Mark, OutOfBand}
	// VDropOutOfBand is the footnote-14 virtual-dropping design; it is
	// not part of Designs (the paper's four prototypes) but is evaluated
	// by BenchmarkAblationVirtualDrop.
	VDropOutOfBand = Design{VDrop, OutOfBand}
	Designs        = []Design{DropInBand, DropOutOfBand, MarkInBand, MarkOutOfBand}
)

// Config parameterizes a Prober.
type Config struct {
	Design Design
	Kind   ProberKind
	// Eps is the acceptance threshold: the flow is admitted if the
	// measured loss (or mark) fraction is <= Eps.
	Eps float64
	// ProbeDur is the total probing duration (paper default 5 s).
	ProbeDur sim.Time
	// StageDur is the evaluation interval for EarlyReject and SlowStart
	// (paper default 1 s). Simple probing ignores it.
	StageDur sim.Time
	// Guard is how long after a stage stops sending the decision is
	// deferred, so in-flight probe packets can arrive. It should exceed
	// the one-way path delay.
	Guard sim.Time
}

// WithDefaults fills unset durations with the paper's values.
func (c Config) WithDefaults() Config {
	if c.ProbeDur == 0 {
		c.ProbeDur = 5 * sim.Second
	}
	if c.StageDur == 0 {
		c.StageDur = 1 * sim.Second
	}
	if c.Guard == 0 {
		c.Guard = 200 * sim.Millisecond
	}
	return c
}

// stagesInto appends the per-stage probing rates for a flow of token rate
// r to dst (reusing its capacity).
func (c Config) stagesInto(dst []float64, r float64) []float64 {
	if c.Kind != SlowStart && c.Kind != EarlyReject {
		return append(dst, r) // Simple: one stage covering the whole probe period
	}
	n := max(int(c.ProbeDur/c.StageDur), 1)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		if c.Kind == SlowStart {
			dst = append(dst, r/float64(int64(1)<<uint(n-1-i)))
		} else {
			dst = append(dst, r)
		}
	}
	return dst
}

// stageDur returns the duration of each stage for this config.
func (c Config) stageDur() sim.Time {
	if c.Kind == Simple {
		return c.ProbeDur
	}
	return c.StageDur
}

// Result summarizes a finished probe.
type Result struct {
	Accepted bool
	// Fraction is the bad-packet fraction measured in the deciding stage.
	Fraction float64
	// Sent, Lost and Marked total across all stages.
	Sent, Lost, Marked int64
	// Elapsed is how long the host probed before deciding.
	Elapsed sim.Time
	// StageFracs holds the measured bad-packet fraction of every stage
	// that sent at least one packet — including on an early reject, where
	// Fraction alone only reports the deciding stage. The slice is owned
	// by the Prober and valid until its next Reinit or Start.
	StageFracs []float64
}

// Prober runs the endpoint admission control handshake for one flow. The
// caller supplies the probe packet route (ending at a receiver that calls
// OnProbeArrival) and a completion callback.
type Prober struct {
	s      *sim.Sim
	cfg    Config
	flowID int
	rate   float64 // token rate r, bits/s
	pkt    int     // probe packet size, bytes
	route  []netsim.Receiver
	pool   *netsim.Pool
	done   func(Result)

	cbr     *trafgen.CBR
	rates   []float64
	stage   int
	started sim.Time

	sent       []int64
	recv       []int64
	marked     []int64
	gaps       []int64    // losses discovered by sequence gaps
	expect     []int64    // next expected per-stage sequence
	stageStart []sim.Time // when each stage began sending
	stageFracs []float64  // Result.StageFracs buffer, reused across attempts

	checkEv sim.Event // periodic early-stop check
	stageEv sim.Event // end of the currently sending stage
	// judgeEv[st] judges stage st one Guard after it stopped sending: one
	// event per stage, since a Guard longer than a stage leaves two
	// outstanding. They fire in stage order, so they share one callback
	// that judges stage nextJudge. Made when a stage first ends (most
	// rejected probes never get that far) and kept across Reinit.
	judgeEv   []sim.Event
	nextJudge int
	// All three timers fire a fixed interval after they are set, so every
	// prober's go through the simulator's lane for that interval.
	checkLane, stageLane, judgeLane sim.Lane
	finished                        bool
}

// NewProber builds a prober for a flow with token rate r (bits/s) and
// probe packets of pktSize bytes. done is invoked exactly once.
func NewProber(s *sim.Sim, cfg Config, flowID int, r float64, pktSize int, route []netsim.Receiver, pool *netsim.Pool, done func(Result)) *Prober {
	p := &Prober{s: s, pool: pool}
	p.cbr = trafgen.NewCBR(s, 1, 1, p.emit) // re-parameterized by Reinit
	p.checkEv.Init(p.periodicCheck)
	p.stageEv.Init(p.endStage)
	p.Reinit(cfg, flowID, r, pktSize, route, done)
	return p
}

// Reinit rewinds an idle prober for another admission attempt, reusing its
// stage-accounting slices, CBR source, and internal events in place of a
// NewProber allocation (probers dominate the per-flow allocation bill).
// The prober must not be probing: finished, Abort-ed, or retired by
// ForgetEvents after a simulator reset. Stale probe packets cannot confuse
// the reincarnation — the scenario retries a flow only after a back-off
// far exceeding the path drain time, and a simulator reset empties the
// network entirely.
func (p *Prober) Reinit(cfg Config, flowID int, r float64, pktSize int, route []netsim.Receiver, done func(Result)) {
	cfg = cfg.WithDefaults()
	p.cfg, p.flowID, p.rate, p.pkt = cfg, flowID, r, pktSize
	p.route, p.done = route, done
	p.rates = cfg.stagesInto(p.rates[:0], r)
	n := len(p.rates)
	p.sent = zeroed(p.sent, n)
	p.recv = zeroed(p.recv, n)
	p.marked = zeroed(p.marked, n)
	p.gaps = zeroed(p.gaps, n)
	p.expect = zeroed(p.expect, n)
	if cap(p.stageStart) < n {
		p.stageStart = make([]sim.Time, n)
	}
	p.stageStart = p.stageStart[:n]
	for i := range p.stageStart {
		p.stageStart[i] = 0
	}
	if cap(p.stageFracs) < n {
		p.stageFracs = make([]float64, 0, n)
	}
	p.stageFracs = p.stageFracs[:0]
	// A judge the previous attempt left behind must not judge this one.
	p.cancelJudges()
	if len(p.judgeEv) < n {
		p.judgeEv = nil
	}
	p.cbr.Reinit(p.rates[0], pktSize)
	p.stage, p.nextJudge, p.started, p.finished = 0, 0, 0, false
}

func (p *Prober) cancelJudges() {
	for i := range p.judgeEv {
		p.s.Cancel(&p.judgeEv[i])
	}
}

// zeroed returns s resized to n elements, all zero, reusing its capacity.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ForgetEvents clears the prober's pending internal events without
// touching any simulator. Valid only together with a sim.Reset that wiped
// the old heap (see sim.Event.Forget); use Abort otherwise. The prober is
// left finished, ready for Reinit.
func (p *Prober) ForgetEvents() {
	p.finished = true
	p.checkEv.Forget()
	p.stageEv.Forget()
	for i := range p.judgeEv {
		p.judgeEv[i].Forget()
	}
	p.cbr.Forget()
}

// Start begins probing.
func (p *Prober) Start(now sim.Time) {
	p.started = now
	p.stage = 0
	p.stageStart[0] = now
	p.cbr.SetRate(p.rates[0])
	p.cbr.Start(now)
	p.stageLane, p.checkLane = p.s.Lane(p.cfg.stageDur()), p.s.Lane(p.checkInterval())
	p.judgeLane = p.s.Lane(p.cfg.Guard)
	// The stage stops sending at stageDur and is judged Guard later.
	p.s.ScheduleLane(p.stageLane, &p.stageEv, now+p.cfg.stageDur())
	p.s.ScheduleLane(p.checkLane, &p.checkEv, now+p.checkInterval())
}

// checkInterval is the cadence of the timer-driven early-stop check.
func (p *Prober) checkInterval() sim.Time { return 100 * sim.Millisecond }

// Abort cancels an in-progress probe without invoking the done callback.
func (p *Prober) Abort() {
	p.finished = true
	p.cbr.Stop()
	p.s.Cancel(&p.checkEv)
	p.s.Cancel(&p.stageEv)
	p.cancelJudges()
}

// emit sends one probe packet.
func (p *Prober) emit(now sim.Time, size int) {
	band := netsim.BandData
	if p.cfg.Design.Band == OutOfBand {
		band = netsim.BandProbe
	}
	pk := p.pool.Get()
	pk.FlowID = p.flowID
	pk.Kind = netsim.Probe
	pk.Band = band
	pk.Size = size
	pk.Stage = p.stage
	pk.Seq = p.sent[p.stage]
	pk.Route = p.route
	p.sent[p.stage]++
	netsim.Send(now, pk)
}

// endStage fires when the current stage stops sending.
func (p *Prober) endStage(now sim.Time) {
	if p.finished {
		return
	}
	p.cbr.Stop()
	// Judge this stage after the guard; meanwhile, if more stages
	// remain, they start sending immediately.
	if p.judgeEv == nil {
		p.judgeEv = make([]sim.Event, len(p.rates))
		fn := p.judgeNext
		for i := range p.judgeEv {
			p.judgeEv[i].Init(fn)
		}
	}
	p.s.ScheduleLane(p.judgeLane, &p.judgeEv[p.stage], now+p.cfg.Guard)
	if p.stage+1 < len(p.rates) {
		p.stage++
		p.stageStart[p.stage] = now
		p.cbr.SetRate(p.rates[p.stage])
		p.cbr.Start(now)
		p.s.ScheduleLane(p.stageLane, &p.stageEv, now+p.cfg.stageDur())
	}
}

// sentBy returns how many probe packets of a stage had been emitted by
// time t (the probe stream is CBR, so this is deterministic).
func (p *Prober) sentBy(stage int, t sim.Time) int64 {
	start := p.stageStart[stage]
	if t < start {
		return 0
	}
	interval := sim.Time(float64(p.pkt*8) / p.rates[stage] * float64(sim.Second))
	n := int64((t-start)/interval) + 1
	if n > p.sent[stage] {
		n = p.sent[stage]
	}
	return n
}

// periodicCheck implements the time-driven half of the early-stop rule: a
// receiver that knows the probe schedule can infer losses even when no
// probe packets arrive at all (total starvation of an out-of-band probe
// stream, for instance), by comparing the packets that must have been sent
// Guard ago against the packets received.
func (p *Prober) periodicCheck(now sim.Time) {
	if p.finished {
		return
	}
	st := p.stage
	lost := p.sentBy(st, now-p.cfg.Guard) - p.recv[st]
	if lost < p.gaps[st] {
		lost = p.gaps[st]
	}
	bad := lost
	if p.cfg.Design.Signal == Mark {
		bad += p.marked[st]
	}
	if float64(bad) > p.cfg.Eps*p.plannedPackets(st) {
		p.finish(now, Result{Accepted: false, Fraction: p.fraction(st)})
		return
	}
	p.s.ScheduleLane(p.checkLane, &p.checkEv, now+p.checkInterval())
}

// plannedPackets returns how many packets a full stage would send.
func (p *Prober) plannedPackets(stage int) float64 {
	return p.rates[stage] * p.cfg.stageDur().Sec() / float64(p.pkt*8)
}

// OnProbeArrival accounts an arriving probe packet. The caller retains
// ownership of the packet (and typically recycles it).
func (p *Prober) OnProbeArrival(now sim.Time, pk *netsim.Packet) {
	if p.finished {
		return
	}
	st := pk.Stage
	if st < 0 || st >= len(p.expect) {
		return
	}
	if pk.Seq > p.expect[st] {
		p.gaps[st] += pk.Seq - p.expect[st]
	}
	p.expect[st] = pk.Seq + 1
	p.recv[st]++
	if pk.Marked {
		p.marked[st]++
	}
	// Early stop (Section 3.1): once the bad count already guarantees the
	// stage fraction will exceed eps, stop probing and reject.
	if float64(p.bad(st)) > p.cfg.Eps*p.plannedPackets(st) {
		p.finish(now, Result{Accepted: false, Fraction: p.fraction(st)})
	}
}

// bad returns the known-bad packet count for a stage: sequence-gap losses
// plus (for marking designs) marks.
func (p *Prober) bad(stage int) int64 {
	b := p.gaps[stage]
	if p.cfg.Design.Signal == Mark {
		b += p.marked[stage]
	}
	return b
}

// fraction returns the stage's current bad fraction using losses implied by
// sent-received (valid once in-flight packets have arrived).
func (p *Prober) fraction(stage int) float64 {
	sent := p.sent[stage]
	if sent == 0 {
		return 0
	}
	lost := sent - p.recv[stage]
	if lost < p.gaps[stage] {
		lost = p.gaps[stage]
	}
	b := lost
	if p.cfg.Design.Signal == Mark {
		b += p.marked[stage]
	}
	return float64(b) / float64(sent)
}

// judgeNext is the callback of every judgeEv; it applies the stage
// acceptance test after the guard period. Judges come due in stage order,
// so the one firing is nextJudge's. finish does not cancel a judge still
// queued: it fires into the finished prober and does nothing, which keeps
// a run's executed-event count what it was when each judge was a one-shot
// closure (the benchmark compares it across commits). Reinit and Abort do
// cancel them.
func (p *Prober) judgeNext(now sim.Time) {
	if p.finished {
		return
	}
	stage := p.nextJudge
	p.nextJudge++ // before finish, whose callback may Reinit and restart p
	frac := p.fraction(stage)
	if frac > p.cfg.Eps {
		p.finish(now, Result{Accepted: false, Fraction: frac})
		return
	}
	if stage == len(p.rates)-1 {
		p.finish(now, Result{Accepted: true, Fraction: frac})
	}
}

func (p *Prober) finish(now sim.Time, r Result) {
	if p.finished {
		return
	}
	p.finished = true
	p.cbr.Stop()
	p.s.Cancel(&p.checkEv)
	p.s.Cancel(&p.stageEv)
	p.stageFracs = p.stageFracs[:0]
	for i := range p.sent {
		r.Sent += p.sent[i]
		r.Marked += p.marked[i]
		r.Lost += p.sent[i] - p.recv[i]
		if p.sent[i] > 0 {
			p.stageFracs = append(p.stageFracs, p.fraction(i))
		}
	}
	r.StageFracs = p.stageFracs
	r.Elapsed = now - p.started
	p.done(r)
}
