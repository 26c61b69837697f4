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

// numStages returns how many stages a probe has.
func (c Config) numStages() int {
	if c.Kind != SlowStart && c.Kind != EarlyReject {
		return 1 // Simple: one stage covering the whole probe period
	}
	return max(int(c.ProbeDur/c.StageDur), 1)
}

// stageRate returns the probing rate of stage i of n for a flow of token
// rate r.
func (c Config) stageRate(i, n int, r float64) float64 {
	if c.Kind == SlowStart {
		return r / float64(int64(1)<<uint(n-1-i))
	}
	return r
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
	// FlowID is the flow the probe ran for, so that probers of many flows
	// can report to one callback.
	FlowID int
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

	cbr     trafgen.CBR
	stages  []probeStage // one block: a new prober pays for it once, a reused one never
	stage   int          // the stage now sending
	started sim.Time

	stageFracs []float64 // Result.StageFracs buffer, reused across attempts

	checkEv sim.Event // periodic early-stop check
	stageEv sim.Event // end of the currently sending stage
	// The stage judges fire in stage order, so they share one callback, which
	// judges stage nextJudge.
	judgeFn   func(sim.Time)
	nextJudge int
	// All three timers fire a fixed interval after they are set, so every
	// prober's go through the simulator's lane for that interval.
	checkLane, stageLane, judgeLane sim.Lane
	finished                        bool
}

// probeStage is one probing stage: its rate, when it began, what it counted.
type probeStage struct {
	rate  float64  // bits/s
	start sim.Time // when the stage began sending
	stageCounts
	// judge judges the stage one Guard after it stopped sending: an event per
	// stage, since a Guard longer than a stage leaves two outstanding.
	judge sim.Event
}

type stageCounts struct {
	sent, recv, marked int64
	gaps               int64 // losses discovered by sequence gaps
	expect             int64 // next expected per-stage sequence
}

// NewProber builds a prober for a flow with token rate r (bits/s) and
// probe packets of pktSize bytes. done is invoked exactly once.
func NewProber(s *sim.Sim, cfg Config, flowID int, r float64, pktSize int, route []netsim.Receiver, pool *netsim.Pool, done func(Result)) *Prober {
	p := &Prober{s: s, pool: pool}
	p.cbr.Init(s, 1, 1, p.emit, 0) // re-parameterized by Reinit
	p.checkEv.Init(p.periodicCheck)
	p.stageEv.Init(p.endStage)
	p.judgeFn = p.judgeNext
	p.Reinit(cfg, flowID, r, pktSize, route, done)
	return p
}

// Reinit rewinds an idle prober for another admission attempt — of the same
// flow or, since the scenario recycles probers inside a run, of another —
// reusing its stage block, CBR source and internal events in place of a
// NewProber allocation (probers dominate the per-flow allocation bill).
// The prober must not be probing: finished, Abort-ed, or retired by
// ForgetEvents after a simulator reset. Stale probe packets cannot confuse
// the reincarnation: they carry their flow's ID, and the scenario retries a
// flow only after a back-off far exceeding the path drain time.
func (p *Prober) Reinit(cfg Config, flowID int, r float64, pktSize int, route []netsim.Receiver, done func(Result)) {
	cfg = cfg.WithDefaults()
	p.cfg, p.flowID, p.rate, p.pkt = cfg, flowID, r, pktSize
	p.route, p.done = route, done
	// A judge the previous attempt left behind must not judge this one.
	p.cancelJudges()
	n := cfg.numStages()
	if cap(p.stages) < n {
		p.stages = make([]probeStage, n)
		for i := range p.stages {
			p.stages[i].judge.Init(p.judgeFn)
		}
	}
	p.stages = p.stages[:n]
	for i := range p.stages {
		st := &p.stages[i]
		st.rate, st.start, st.stageCounts = cfg.stageRate(i, n, r), 0, stageCounts{}
	}
	if cap(p.stageFracs) < n {
		p.stageFracs = make([]float64, 0, n)
	}
	p.stageFracs = p.stageFracs[:0]
	p.cbr.Reinit(p.stages[0].rate, pktSize)
	p.stage, p.nextJudge, p.started, p.finished = 0, 0, 0, false
}

func (p *Prober) cancelJudges() {
	for i := range p.stages {
		p.s.Cancel(&p.stages[i].judge)
	}
}

// ForgetEvents clears the prober's pending internal events without
// touching any simulator. Valid only together with a sim.Reset that wiped
// the old heap (see sim.Event.Forget); use Abort otherwise. The prober is
// left finished, ready for Reinit.
func (p *Prober) ForgetEvents() {
	p.finished = true
	p.checkEv.Forget()
	p.stageEv.Forget()
	for i := range p.stages {
		p.stages[i].judge.Forget()
	}
	p.cbr.Forget()
}

// Start begins probing.
func (p *Prober) Start(now sim.Time) {
	p.started = now
	p.stage = 0
	p.stages[0].start = now
	p.cbr.SetRate(p.stages[0].rate)
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
func (p *Prober) emit(now sim.Time, _, size int) {
	band := netsim.BandData
	if p.cfg.Design.Band == OutOfBand {
		band = netsim.BandProbe
	}
	pk := p.pool.Get()
	pk.FlowID = p.flowID
	pk.Kind = netsim.Probe
	pk.Band = band
	pk.Size = size
	st := &p.stages[p.stage]
	pk.Stage = p.stage
	pk.Seq = st.sent
	pk.Route = p.route
	st.sent++
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
	p.s.ScheduleLane(p.judgeLane, &p.stages[p.stage].judge, now+p.cfg.Guard)
	if p.stage+1 < len(p.stages) {
		p.stage++
		p.stages[p.stage].start = now
		p.cbr.SetRate(p.stages[p.stage].rate)
		p.cbr.Start(now)
		p.s.ScheduleLane(p.stageLane, &p.stageEv, now+p.cfg.stageDur())
	}
}

// sentBy returns how many probe packets of a stage had been emitted by
// time t (the probe stream is CBR, so this is deterministic).
func (p *Prober) sentBy(stage int, t sim.Time) int64 {
	st := &p.stages[stage]
	if t < st.start {
		return 0
	}
	interval := sim.Time(float64(p.pkt*8) / st.rate * float64(sim.Second))
	return min(int64((t-st.start)/interval)+1, st.sent)
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
	st := &p.stages[p.stage]
	if !p.stopIfBad(now, p.stage, max(p.sentBy(p.stage, now-p.cfg.Guard)-st.recv, st.gaps)) {
		p.s.ScheduleLane(p.checkLane, &p.checkEv, now+p.checkInterval())
	}
}

// stopIfBad is the early-stop rule (Section 3.1): once the bad count of a
// stage's known losses already guarantees its fraction will exceed eps,
// stop probing and reject. It reports whether it did.
func (p *Prober) stopIfBad(now sim.Time, stage int, lost int64) bool {
	if float64(p.bad(stage, lost)) > p.cfg.Eps*p.plannedPackets(stage) {
		p.finish(now, Result{Accepted: false, Fraction: p.fraction(stage)})
		return true
	}
	return false
}

// bad is a stage's bad-packet count: lost, plus the stage's marks for a
// marking design.
func (p *Prober) bad(stage int, lost int64) int64 {
	if p.cfg.Design.Signal == Mark {
		lost += p.stages[stage].marked
	}
	return lost
}

// plannedPackets returns how many packets a full stage would send.
func (p *Prober) plannedPackets(stage int) float64 {
	return p.stages[stage].rate * p.cfg.stageDur().Sec() / float64(p.pkt*8)
}

// OnProbeArrival accounts an arriving probe packet. The caller retains
// ownership of the packet (and typically recycles it).
func (p *Prober) OnProbeArrival(now sim.Time, pk *netsim.Packet) {
	if p.finished {
		return
	}
	if pk.Stage < 0 || pk.Stage >= len(p.stages) {
		return
	}
	st := &p.stages[pk.Stage]
	if pk.Seq > st.expect {
		st.gaps += pk.Seq - st.expect
	}
	st.expect = pk.Seq + 1
	st.recv++
	if pk.Marked {
		st.marked++
	}
	p.stopIfBad(now, pk.Stage, st.gaps) // sequence gaps are known losses
}

// fraction returns the stage's current bad fraction using losses implied by
// sent-received (valid once in-flight packets have arrived).
func (p *Prober) fraction(stage int) float64 {
	st := &p.stages[stage]
	if st.sent == 0 {
		return 0
	}
	return float64(p.bad(stage, max(st.sent-st.recv, st.gaps))) / float64(st.sent)
}

// judgeNext is the callback of every stage's judge; it applies the stage
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
	if stage == len(p.stages)-1 {
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
	for i := range p.stages {
		st := &p.stages[i]
		r.Sent += st.sent
		r.Marked += st.marked
		r.Lost += st.sent - st.recv
		if st.sent > 0 {
			p.stageFracs = append(p.stageFracs, p.fraction(i))
		}
	}
	r.StageFracs = p.stageFracs
	r.Elapsed = now - p.started
	r.FlowID = p.flowID
	p.done(r)
}
