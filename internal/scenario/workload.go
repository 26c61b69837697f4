package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"eac/internal/sim"
	"eac/internal/stats"
)

// This file is the workload engine: a Schedule of composable load phases, a
// ReplayTrace that re-drives flow arrivals recorded in an obs JSONL event
// trace, and arrivals, the one process that draws a domain's flow arrivals
// from either — a Schedule by Lewis–Shedler thinning against its global
// peak on the dedicated "load" RNG stream (exact for any intensity bounded
// by the peak), a ReplayTrace by scheduling the recorded arrival times and
// classes verbatim. The stationary Poisson process is the unit schedule.

// PhaseKind selects how a phase's arrival-rate factor evolves over its
// duration.
type PhaseKind uint8

// Phase kinds.
const (
	// PhaseConst holds the factor at From for the whole phase (To is
	// ignored). Spikes and explicit per-window rate steps are sequences of
	// const phases.
	PhaseConst PhaseKind = iota
	// PhaseRamp interpolates the factor linearly From -> To across the
	// phase. A repeating ramp is a sawtooth.
	PhaseRamp
	// PhaseSine runs one full sinusoidal cycle starting and ending at
	// From, peaking at To mid-phase (a diurnal curve when the duration is
	// one day).
	PhaseSine
)

func (k PhaseKind) String() string {
	switch k {
	case PhaseRamp:
		return "ramp"
	case PhaseSine:
		return "sine"
	default:
		return "const"
	}
}

// Phase is one segment of a Schedule.
type Phase struct {
	Kind PhaseKind
	// DurationSec is the phase length in simulated seconds (> 0).
	DurationSec float64
	// From and To are the arrival-rate factors at the phase's start and
	// end (1 = the stationary rate, 0 = silence). PhaseConst uses From
	// only.
	From, To float64
}

// eval returns the phase's factor at normalized position u in [0, 1).
func (p Phase) eval(u float64) float64 {
	switch p.Kind {
	case PhaseRamp:
		return p.From + (p.To-p.From)*u
	case PhaseSine:
		return p.From + (p.To-p.From)*0.5*(1-math.Cos(2*math.Pi*u))
	default:
		return p.From
	}
}

// endFactor is the factor in force at the phase's end (what Hold freezes).
func (p Phase) endFactor() float64 {
	if p.Kind == PhaseRamp {
		return p.To
	}
	return p.From // const holds From; a sine cycle ends where it started
}

// peak returns the phase's maximum factor. Every kind interpolates within
// [min(From,To), max(From,To)], so the maximum is an endpoint.
func (p Phase) peak() float64 {
	if p.Kind != PhaseConst && p.To > p.From {
		return p.To
	}
	return p.From
}

// Schedule drives the aggregate flow-arrival rate through a sequence of
// phases. The phases play in order from time zero; after the last one the
// schedule cycles back to the first (a periodic workload) unless Hold is
// set, in which case the final phase's end factor stays in force for the
// rest of the run. The zero value (no phases) is inactive and leaves the
// stationary Poisson process untouched.
type Schedule struct {
	Phases []Phase
	// Hold freezes the last phase's end factor after one pass instead of
	// cycling — the shape for one-shot transients like a flash crowd.
	Hold bool
}

// Active reports whether the schedule modulates arrivals at all.
func (s Schedule) Active() bool { return len(s.Phases) > 0 }

// TotalSec returns the summed phase durations (one cycle).
func (s Schedule) TotalSec() float64 {
	t := 0.0
	for _, p := range s.Phases {
		t += p.DurationSec
	}
	return t
}

// Peak returns the schedule's global maximum factor — the thinning
// envelope the runner draws arrivals at.
func (s Schedule) Peak() float64 {
	m := 0.0
	for _, p := range s.Phases {
		if f := p.peak(); f > m {
			m = f
		}
	}
	return m
}

// Validate reports schedule errors: every phase needs a positive finite
// duration and non-negative finite factors, and the schedule must offer
// traffic at some point (positive peak).
func (s Schedule) Validate() error {
	if !s.Active() {
		return nil
	}
	for i, p := range s.Phases {
		if !(p.DurationSec > 0) || math.IsInf(p.DurationSec, 0) {
			return fmt.Errorf("scenario: schedule phase %d needs a positive finite duration, got %g", i, p.DurationSec)
		}
		if !(p.From >= 0) || math.IsInf(p.From, 0) || !(p.To >= 0) || math.IsInf(p.To, 0) {
			return fmt.Errorf("scenario: schedule phase %d has a negative or non-finite factor", i)
		}
	}
	if s.Peak() <= 0 {
		return fmt.Errorf("scenario: schedule offers no traffic (peak factor is zero)")
	}
	return nil
}

// String renders the schedule in the ParseSchedule grammar.
func (s Schedule) String() string {
	var b strings.Builder
	for i, p := range s.Phases {
		if i > 0 {
			b.WriteByte(',')
		}
		if p.Kind == PhaseConst {
			fmt.Fprintf(&b, "const:%g:%g", p.DurationSec, p.From)
		} else {
			fmt.Fprintf(&b, "%s:%g:%g:%g", p.Kind, p.DurationSec, p.From, p.To)
		}
	}
	if s.Hold {
		b.WriteString(",hold")
	}
	return b.String()
}

// schedCursor is a position inside one cycle of a Schedule: the current
// phase and its start, seconds from the cycle's start. Arrivals query the
// schedule in non-decreasing time order, so advancing the cursor makes an
// evaluation O(1) amortized within a cycle. The zero value is the first
// phase; arrivals.reset rewinds it with the rest of the run state
// (Workspace reuse must not leak a previous run's phase position).
type schedCursor struct {
	idx   int
	start float64
}

// factorAt evaluates the schedule at absolute time t (seconds), advancing
// cur. A cycling schedule reads t's offset in its cycle, which math.Mod
// computes exactly, so a query walks at most one cycle however short the
// phases, and the cursor's position is a function of t alone. A query
// behind the cursor rewinds it to the cycle's start first. The schedule
// must be validated.
func (s Schedule) factorAt(t float64, cur *schedCursor) float64 {
	if !s.Active() {
		return 1
	}
	total := s.TotalSec()
	if !(total > 0) {
		return s.Phases[0].From
	}
	if t >= total {
		if s.Hold {
			return s.Phases[len(s.Phases)-1].endFactor()
		}
		t = math.Mod(t, total)
	}
	if t < cur.start {
		*cur = schedCursor{}
	}
	// The phase starts sum in TotalSec's order, so the last phase ends at
	// exactly total > t and the walk stops inside the cycle.
	for t >= cur.start+s.Phases[cur.idx].DurationSec {
		cur.start += s.Phases[cur.idx].DurationSec
		cur.idx++
	}
	p := s.Phases[cur.idx]
	return p.eval((t - cur.start) / p.DurationSec)
}

// FactorAt evaluates the schedule at absolute time t seconds (stateless
// form of the runner's cursor-based evaluation; for tests and tools).
func (s Schedule) FactorAt(t float64) float64 {
	var cur schedCursor
	return s.factorAt(t, &cur)
}

// ParseSchedule builds a Schedule from a comma-separated phase spec:
//
//	const:DUR:F           hold factor F for DUR seconds
//	spike:DUR:F           alias of const (a brief burst phase)
//	ramp:DUR:F0:F1        linear F0 -> F1 (saw/sawtooth are aliases;
//	                      a cycling ramp is a sawtooth wave)
//	sine:DUR:F0:F1        one cycle from F0 up to F1 and back
//	                      (diurnal is an alias; DUR = one day's period)
//	steps:DUR:F1:...:Fn   n const phases of DUR seconds each
//	flash:AT:DUR:BASE:PK  flash crowd: BASE until AT, PK for DUR, back
//	                      to BASE held (implies hold)
//	hold                  freeze the final factor instead of cycling
//
// Example: "const:60:1,ramp:30:1:4,const:30:4,hold".
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "hold" {
			s.Hold = true
			continue
		}
		parts := strings.Split(tok, ":")
		kind := parts[0]
		args := make([]float64, 0, len(parts)-1)
		for _, p := range parts[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("scenario: schedule phase %q: %v", tok, err)
			}
			args = append(args, v)
		}
		bad := func() (Schedule, error) {
			return Schedule{}, fmt.Errorf("scenario: schedule phase %q has the wrong number of arguments", tok)
		}
		switch kind {
		case "const", "spike":
			if len(args) != 2 {
				return bad()
			}
			s.Phases = append(s.Phases, Phase{Kind: PhaseConst, DurationSec: args[0], From: args[1], To: args[1]})
		case "ramp", "saw", "sawtooth":
			if len(args) != 3 {
				return bad()
			}
			s.Phases = append(s.Phases, Phase{Kind: PhaseRamp, DurationSec: args[0], From: args[1], To: args[2]})
		case "sine", "diurnal":
			if len(args) != 3 {
				return bad()
			}
			s.Phases = append(s.Phases, Phase{Kind: PhaseSine, DurationSec: args[0], From: args[1], To: args[2]})
		case "steps":
			if len(args) < 2 {
				return bad()
			}
			for _, f := range args[1:] {
				s.Phases = append(s.Phases, Phase{Kind: PhaseConst, DurationSec: args[0], From: f, To: f})
			}
		case "flash":
			if len(args) != 4 {
				return bad()
			}
			at, dur, base, peak := args[0], args[1], args[2], args[3]
			s.Phases = append(s.Phases,
				Phase{Kind: PhaseConst, DurationSec: at, From: base, To: base},
				Phase{Kind: PhaseConst, DurationSec: dur, From: peak, To: peak},
				Phase{Kind: PhaseConst, DurationSec: 1, From: base, To: base})
			s.Hold = true
		default:
			return Schedule{}, fmt.Errorf("scenario: unknown schedule phase kind %q (const, spike, ramp, saw, sine, diurnal, steps, flash)", kind)
		}
	}
	if !s.Active() {
		return Schedule{}, fmt.Errorf("scenario: empty schedule spec %q", spec)
	}
	return s, s.Validate()
}

// ReplayArrival is one recorded flow arrival: its absolute simulated time
// and traffic class.
type ReplayArrival struct {
	At    sim.Time
	Class int
}

// ReplayTrace re-drives flow arrivals from a recorded run: the runner
// schedules these times and classes verbatim instead of drawing a Poisson
// process, so any observed run becomes a workload. Arrivals are kept
// sorted by time (stable, preserving recorded order at equal timestamps)
// and content-addressed by a digest so configs carrying a trace
// fingerprint — and cache — correctly. Immutable after construction.
type ReplayTrace struct {
	arrivals []ReplayArrival
	digest   string
	source   string // provenance label (file path), cosmetic
}

// Len returns the number of recorded arrivals.
func (rt *ReplayTrace) Len() int {
	if rt == nil {
		return 0
	}
	return len(rt.arrivals)
}

// Digest returns the content digest over the sorted arrival sequence.
func (rt *ReplayTrace) Digest() string {
	if rt == nil {
		return ""
	}
	return rt.digest
}

// Source returns the provenance label (the trace file path, when loaded
// from one).
func (rt *ReplayTrace) Source() string {
	if rt == nil {
		return ""
	}
	return rt.source
}

// MaxClass returns the largest class index referenced (-1 when empty);
// Config.Validate checks it against the class list.
func (rt *ReplayTrace) MaxClass() int {
	m := -1
	if rt == nil {
		return m
	}
	for _, a := range rt.arrivals {
		if a.Class > m {
			m = a.Class
		}
	}
	return m
}

// NewReplayTrace builds a trace from explicit arrivals (sorted into time
// order; recorded order is preserved at equal timestamps). Negative times
// or classes are rejected.
func NewReplayTrace(arrivals []ReplayArrival, source string) (*ReplayTrace, error) {
	for i, a := range arrivals {
		if a.At < 0 || a.Class < 0 {
			return nil, fmt.Errorf("scenario: replay arrival %d has negative time or class", i)
		}
	}
	out := make([]ReplayArrival, len(arrivals))
	copy(out, arrivals)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	h := sha256.New()
	for _, a := range out {
		fmt.Fprintf(h, "%d/%d\n", int64(a.At), a.Class)
	}
	return &ReplayTrace{
		arrivals: out,
		digest:   hex.EncodeToString(h.Sum(nil)),
		source:   source,
	}, nil
}

// replayLine is the subset of an obs JSONL trace line replay consumes
// (the "arrival" events written by Collector.Arrival).
type replayLine struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Class int     `json:"class"`
}

// ParseReplay reads an obs JSONL event trace and keeps its "arrival"
// events. It is tolerant by design — lines that are not valid JSON
// objects, are other event kinds, or carry negative/non-finite fields are
// skipped, so a trace mixed with packet events (the normal case) or a
// damaged one parses without error. Times are reconstructed exactly: the
// JSONL encoder writes t with round-trip float64 precision, so rounding
// t*1e9 back to integer nanoseconds recovers the recorded sim.Time
// bit-for-bit for any time below ~104 days.
func ParseReplay(r io.Reader, source string) (*ReplayTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var arrivals []ReplayArrival
	for sc.Scan() {
		line := sc.Bytes()
		var rec replayLine
		if err := json.Unmarshal(line, &rec); err != nil || rec.Ev != "arrival" {
			continue
		}
		if !(rec.T >= 0) || math.IsInf(rec.T, 0) || rec.Class < 0 {
			continue
		}
		at := math.Round(rec.T * float64(sim.Second))
		if at > math.MaxInt64 {
			continue
		}
		arrivals = append(arrivals, ReplayArrival{At: sim.Time(at), Class: rec.Class})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: reading replay trace %s: %w", source, err)
	}
	return NewReplayTrace(arrivals, source)
}

// LoadReplay reads a replay trace from an obs JSONL trace file.
func LoadReplay(path string) (*ReplayTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseReplay(f, path)
}

// arrivals is a domain's flow-arrival process. Candidates are a Poisson
// stream at the peak rate, each kept with probability factor(now)/peak, or
// the recorded arrivals of a replay. With no active Schedule the peak is 1:
// Float64() < 1 keeps every candidate, and those draws come from the "load"
// stream, which nothing else reads, so the stationary process is the unit
// schedule.
//
// A class is owned by the domain of the first link on its path. classW
// holds the weights of the classes this domain owns (0 for the others),
// ownedW their sum and totalW the sum over all classes. The domain draws
// its candidates at the aggregate rate scaled by ownedW/totalW and picks
// among its own classes (thinning a Poisson process splits it into
// independent Poisson processes); a replay skips the other domains'
// classes, which partitions the recorded aggregate the same way.
type arrivals struct {
	rngGap, rngPick, rngLoad stats.RNG // "arrivals", "classpick", "load"

	classW         []float64
	ownedW, totalW float64
	gap            float64 // mean candidate gap at the peak, seconds
	peak           float64 // the thinning envelope
	sched          Schedule
	cur            schedCursor
	replay         *ReplayTrace
	idx            int // the next recorded arrival
	horizon        sim.Time
}

// reset starts the process of a run of cfg on domain dom, whose RNG stream
// labels end in suffix; owner maps each class to its domain.
func (a *arrivals) reset(cfg *Config, owner []int, dom int, suffix string) {
	a.rngGap.ReseedStream(cfg.Seed, "arrivals"+suffix)
	a.rngPick.ReseedStream(cfg.Seed, "classpick"+suffix)
	a.rngLoad.ReseedStream(cfg.Seed, "load"+suffix)
	a.sched, a.cur, a.peak = cfg.Schedule, schedCursor{}, 1
	if a.sched.Active() {
		a.peak = a.sched.Peak()
	}
	a.replay, a.idx, a.horizon = cfg.Replay, 0, cfg.Duration

	n := len(cfg.Classes)
	if cap(a.classW) < n {
		a.classW = make([]float64, n)
	}
	a.classW = a.classW[:n]
	a.ownedW, a.totalW = 0, 0
	for c, cl := range cfg.Classes {
		a.totalW += cl.Weight
		a.classW[c] = 0
		if owner[c] == dom {
			a.classW[c] = cl.Weight
			a.ownedW += cl.Weight
		}
	}
	// A domain that owns every class — always, at K = 1 — draws at exactly
	// InterArrival: x*w/w need not round-trip in floating point.
	mean := cfg.InterArrival
	if a.ownedW > 0 && a.ownedW != a.totalW {
		mean = cfg.InterArrival * a.totalW / a.ownedW
	}
	a.gap = mean / a.peak
}

// next returns when the arrival after now is due, false when that is at or
// past the horizon: the next recorded arrival of a class the domain owns,
// or a gap drawn at the peak rate.
func (a *arrivals) next(now sim.Time) (sim.Time, bool) {
	at := a.horizon
	if a.replay == nil {
		at = now + sim.Seconds(a.rngGap.Exp(a.gap))
	} else {
		for ; a.idx < len(a.replay.arrivals); a.idx++ {
			if r := a.replay.arrivals[a.idx]; a.classW[r.Class] > 0 {
				at = r.At
				break
			}
		}
	}
	return at, at < a.horizon
}

// take returns the class of the arrival due now, or false when thinning
// drops it because the modulated rate is below the peak.
func (a *arrivals) take(now sim.Time) (int, bool) {
	if a.replay != nil {
		a.idx++
		return a.replay.arrivals[a.idx-1].Class, true
	}
	if a.rngLoad.Float64()*a.peak >= a.sched.factorAt(now.Sec(), &a.cur) {
		return 0, false
	}
	return a.pick(), true
}

// pick draws a class by weight among the classes the domain owns, which
// with the scaled candidate rate reconstructs the scenario's per-class
// Poisson processes exactly in distribution.
func (a *arrivals) pick() int {
	x := a.rngPick.Float64() * a.ownedW
	for i, w := range a.classW {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(a.classW) - 1
}
