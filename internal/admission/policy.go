package admission

import (
	"fmt"
	"math"

	"eac/internal/sim"
)

// This file promotes the admission decision to a first-class policy layer.
// The Prober keeps measuring; a Policy decides. For every admission attempt
// the scenario asks the policy what to do (probe, and at what threshold, or
// admit/reject outright), and after each completed probe the policy judges
// the result (accept, block, or extend with another probe).
// The default StaticEpsilon policy reproduces the paper's fixed-threshold
// behaviour exactly — byte-identical simulations, pinned by the golden
// conformance figures.

// PolicyKind selects an admission policy.
type PolicyKind uint8

// Admission policies.
const (
	// PolicyStatic is the paper's fixed-ε rule: probe, admit iff the
	// measured bad-packet fraction is at or below the configured ε. The
	// zero value, so unconfigured scenarios are unchanged.
	PolicyStatic PolicyKind = iota
	// PolicyAlwaysAdmit admits every flow without probing (the "no
	// admission control" end of the spectrum, as a policy instance).
	PolicyAlwaysAdmit
	// PolicyNeverAdmit rejects every flow without probing.
	PolicyNeverAdmit
	// PolicyTokenBucket admits without probing while a token bucket has
	// capacity: admission costs one token, the bucket refills at
	// BucketRate tokens/s up to BucketCap. A rate-cost policy: it bounds
	// the admission rate, not the measured congestion.
	PolicyTokenBucket
	// PolicyEpochAdaptive probes like PolicyStatic but adapts ε every
	// Epoch completed probes, from the epoch's rejection rate and
	// post-admission loss, clamped to [0.001, 0.1].
	PolicyEpochAdaptive
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyAlwaysAdmit:
		return "always-admit"
	case PolicyNeverAdmit:
		return "never-admit"
	case PolicyTokenBucket:
		return "token-bucket"
	case PolicyEpochAdaptive:
		return "epoch-adaptive"
	default:
		return "static"
	}
}

// Probes reports whether the policy decides by probing: the static and
// epoch-adaptive rules read ε, the design and the prober; the others settle
// every attempt without a probe.
func (k PolicyKind) Probes() bool { return k == PolicyStatic || k == PolicyEpochAdaptive }

// ParsePolicyKind maps a command-line name to a PolicyKind.
func ParsePolicyKind(s string) (PolicyKind, error) {
	for _, k := range []PolicyKind{PolicyStatic, PolicyAlwaysAdmit,
		PolicyNeverAdmit, PolicyTokenBucket, PolicyEpochAdaptive} {
		if s == k.String() {
			return k, nil
		}
	}
	return PolicyStatic, fmt.Errorf("admission: unknown policy %q", s)
}

// PolicyConfig parameterizes a Policy. It is a flat comparable struct so
// scenario configs that embed it stay comparable and fingerprintable. Only
// the fields of the selected Kind matter; WithDefaults fills the rest of
// that kind's knobs and leaves foreign knobs at zero, so the zero value
// resolves to the unmodified static-ε policy.
type PolicyConfig struct {
	Kind PolicyKind

	// Token bucket (PolicyTokenBucket): capacity and refill rate in
	// admission tokens; one admission costs one token.
	BucketCap, BucketRate float64

	// Epoch adaptation (PolicyEpochAdaptive). Every Epoch completed
	// probes ε is scaled by 0.75 when the post-admission loss of the epoch
	// exceeded TargetLoss, by 1.25 when loss stayed at or below
	// TargetLoss/2 while probes were being rejected, and clamped to
	// [0.001, 0.1].
	Epoch      int
	TargetLoss float64
}

// The adaptive policy's ε clamp and multiplicative step, and the token
// bucket's price of one admission.
const (
	epsMin, epsMax = 0.001, 0.1
	epsStep        = 0.25
	bucketCost     = 1
)

// WithDefaults fills the selected kind's unset knobs.
func (pc PolicyConfig) WithDefaults() PolicyConfig {
	switch pc.Kind {
	case PolicyTokenBucket:
		if pc.BucketCap == 0 {
			pc.BucketCap = 10
		}
		if pc.BucketRate == 0 {
			pc.BucketRate = 0.5
		}
	case PolicyEpochAdaptive:
		if pc.Epoch == 0 {
			pc.Epoch = 50
		}
		if pc.TargetLoss == 0 {
			pc.TargetLoss = 0.01
		}
	}
	return pc
}

// Validate reports configuration errors WithDefaults cannot fix.
func (pc PolicyConfig) Validate() error {
	if pc.Kind > PolicyEpochAdaptive {
		return fmt.Errorf("admission: unknown policy kind %d", pc.Kind)
	}
	pc = pc.WithDefaults()
	switch pc.Kind {
	case PolicyTokenBucket:
		if pc.BucketCap < 0 || pc.BucketRate < 0 {
			return fmt.Errorf("admission: token-bucket policy needs cap/rate >= 0")
		}
	case PolicyEpochAdaptive:
		if pc.Epoch < 1 {
			return fmt.Errorf("admission: epoch-adaptive policy needs Epoch >= 1")
		}
		if pc.TargetLoss < 0 {
			return fmt.Errorf("admission: negative TargetLoss")
		}
	}
	return nil
}

// Request describes one admission attempt awaiting a policy decision.
type Request struct {
	Now    sim.Time
	FlowID int
	Class  int
	// BaseEps is the statically configured threshold for the flow's
	// class (scenario ε with any per-class override applied).
	BaseEps float64
}

// Action is what a policy wants done with an admission attempt.
type Action uint8

// Policy decisions for a new attempt.
const (
	// ActionProbe runs an admission probe with the decision's ε. The zero
	// value.
	ActionProbe Action = iota
	// ActionAdmit admits the flow immediately, without probing.
	ActionAdmit
	// ActionReject rejects the flow immediately and finally — the retry
	// back-off applies only to probe rejections, not policy rejections.
	ActionReject
)

// Decision is a policy's answer to a Request.
type Decision struct {
	Action Action
	// Eps is the acceptance threshold for the probe (ActionProbe).
	Eps float64
}

// Observation is a completed probe presented for judgment.
type Observation struct {
	Res Result
	// Attempts counts the flow's completed probes including this one.
	Attempts int
	// Eps is the threshold the probe ran against.
	Eps float64
}

// Outcome is a policy's judgment of a completed probe.
type Outcome uint8

// Probe judgments.
const (
	// OutcomeAccept admits the flow.
	OutcomeAccept Outcome = iota
	// OutcomeBlock rejects this attempt (the scenario's retry back-off
	// may still re-attempt).
	OutcomeBlock
	// OutcomeExtend asks for another probe immediately, without counting
	// the attempt as a rejection — used when the threshold moved while
	// the probe was in flight.
	OutcomeExtend
)

// Policy decides admission attempts and judges completed probes. A Policy
// instance is owned by one run (one Runner, or one shard of a sharded
// run) and is never called concurrently; implementations keep plain
// mutable state. Policies must be deterministic — they draw no random
// numbers — so runs stay reproducible and cacheable by config fingerprint.
type Policy interface {
	// Decide is called once per admission attempt (including retries).
	Decide(req Request) Decision
	// Judge is called once per completed probe (only probing policies
	// ever see it).
	Judge(now sim.Time, o Observation) Outcome
}

// EpochStats summarizes one completed adaptation epoch.
type EpochStats struct {
	// Epoch numbers completed epochs from 0.
	Epoch int
	// Eps is the threshold in force after the adaptation.
	Eps float64
	// RejectRate is the fraction of the epoch's probes that were
	// rejected; LossRate is the post-admission data loss over the epoch.
	RejectRate, LossRate float64
}

// NewPolicy builds the policy instance for a resolved PolicyConfig. ac is
// the scenario's resolved admission config (the static baseline the
// adaptive policy starts from).
func NewPolicy(pc PolicyConfig, ac Config) Policy {
	pc = pc.WithDefaults()
	switch pc.Kind {
	case PolicyAlwaysAdmit:
		return AlwaysAdmit{}
	case PolicyNeverAdmit:
		return NeverAdmit{}
	case PolicyTokenBucket:
		return NewTokenBucket(pc.BucketCap, pc.BucketRate)
	case PolicyEpochAdaptive:
		return NewEpochAdaptive(pc, ac)
	default:
		return StaticEpsilon{}
	}
}

// StaticEpsilon is the paper's fixed-threshold rule behind the Policy
// interface: probe at the class's configured ε, admit iff the probe
// accepted. It is stateless and draws nothing, so a run through it is the
// paper's rule exactly.
type StaticEpsilon struct{}

// Decide implements Policy: always probe, at the configured threshold.
func (StaticEpsilon) Decide(req Request) Decision {
	return Decision{Action: ActionProbe, Eps: req.BaseEps}
}

// Judge implements Policy: the probe's verdict is final.
func (StaticEpsilon) Judge(now sim.Time, o Observation) Outcome {
	if o.Res.Accepted {
		return OutcomeAccept
	}
	return OutcomeBlock
}

// AlwaysAdmit admits every flow without probing.
type AlwaysAdmit struct{}

// Decide implements Policy.
func (AlwaysAdmit) Decide(Request) Decision { return Decision{Action: ActionAdmit} }

// Judge implements Policy (unreachable: AlwaysAdmit never probes).
func (AlwaysAdmit) Judge(now sim.Time, o Observation) Outcome { return OutcomeAccept }

// NeverAdmit rejects every flow without probing.
type NeverAdmit struct{}

// Decide implements Policy.
func (NeverAdmit) Decide(Request) Decision { return Decision{Action: ActionReject} }

// Judge implements Policy (unreachable: NeverAdmit never probes).
func (NeverAdmit) Judge(now sim.Time, o Observation) Outcome { return OutcomeBlock }

// TokenBucket is a rate-cost admission policy: a bucket of capacity cap
// refills continuously at rate tokens/s; each admission spends one token,
// and an attempt finding less than one is rejected outright. The bucket
// starts full.
type TokenBucket struct {
	cap, rate, tokens float64
	last              sim.Time
}

// NewTokenBucket builds a full token bucket.
func NewTokenBucket(capacity, rate float64) *TokenBucket {
	return &TokenBucket{cap: capacity, rate: rate, tokens: capacity}
}

// Scale multiplies the bucket's capacity, refill rate, and current level
// by share. Sharded runs scale each shard's bucket by its owned share of
// the class weights, so the aggregate admission rate across shards matches
// the serial policy's.
func (p *TokenBucket) Scale(share float64) {
	p.cap *= share
	p.rate *= share
	p.tokens *= share
}

// Decide implements Policy.
func (p *TokenBucket) Decide(req Request) Decision {
	p.tokens += (req.Now - p.last).Sec() * p.rate
	p.last = req.Now
	if p.tokens > p.cap {
		p.tokens = p.cap
	}
	if p.tokens >= bucketCost {
		p.tokens -= bucketCost
		return Decision{Action: ActionAdmit}
	}
	return Decision{Action: ActionReject}
}

// Judge implements Policy (unreachable: TokenBucket never probes).
func (p *TokenBucket) Judge(now sim.Time, o Observation) Outcome {
	if o.Res.Accepted {
		return OutcomeAccept
	}
	return OutcomeBlock
}

// EpochAdaptive probes like StaticEpsilon but closes the loop: every
// cfg.Epoch completed probes it recomputes ε from two free signals — the
// epoch's probe rejection rate and the post-admission data loss reported
// by the loss signal — stepping ε down multiplicatively when admitted
// traffic is losing packets and back up when the link is clean but probes
// are still being rejected, always clamped to [epsMin, epsMax]. Adaptation
// is deterministic: same decision stream, same trajectory.
type EpochAdaptive struct {
	cfg PolicyConfig
	eps float64

	nProbes, nRejects int
	epoch             int
	lastArr, lastDrop int64

	// signal reports cumulative post-admission data-packet counters
	// (arrived, dropped) across the run's links; adapt uses the deltas
	// between epochs. Nil means no loss feedback (loss reads as 0).
	signal func() (arrived, dropped int64)
	// hook observes each completed epoch (observability).
	hook func(now sim.Time, st EpochStats)
}

// NewEpochAdaptive builds the adaptive policy from its resolved config,
// starting at the static scenario threshold clamped into bounds.
func NewEpochAdaptive(pc PolicyConfig, ac Config) *EpochAdaptive {
	return &EpochAdaptive{cfg: pc, eps: clamp(ac.Eps)}
}

// SetLossSignal installs the cumulative post-admission loss counters the
// adaptation reads (scenario wires the run's link statistics here).
func (p *EpochAdaptive) SetLossSignal(f func() (arrived, dropped int64)) { p.signal = f }

// SetEpochHook installs an observer called after every completed epoch.
func (p *EpochAdaptive) SetEpochHook(f func(now sim.Time, st EpochStats)) { p.hook = f }

// Eps returns the threshold currently in force (for tests).
func (p *EpochAdaptive) Eps() float64 { return p.eps }

// Decide implements Policy: probe at the adapted threshold.
func (p *EpochAdaptive) Decide(req Request) Decision {
	return Decision{Action: ActionProbe, Eps: p.eps}
}

// Judge implements Policy. A probe rejected against a stale, tighter
// threshold — ε was relaxed while it ran and its measured fraction already
// satisfies the current ε — is extended (re-probed) instead of blocked,
// and does not count toward the epoch.
func (p *EpochAdaptive) Judge(now sim.Time, o Observation) Outcome {
	if o.Res.Accepted {
		p.completed(now, false)
		return OutcomeAccept
	}
	if o.Eps < p.eps && o.Res.Fraction <= p.eps {
		return OutcomeExtend
	}
	p.completed(now, true)
	return OutcomeBlock
}

// completed books one judged probe and runs the epoch adaptation when due.
func (p *EpochAdaptive) completed(now sim.Time, rejected bool) {
	p.nProbes++
	if rejected {
		p.nRejects++
	}
	if p.nProbes >= p.cfg.Epoch {
		p.adapt(now)
	}
}

// lossSince returns the post-admission loss fraction since the previous
// epoch boundary, tolerating counter resets (the warmup boundary zeroes
// link statistics, making the cumulative counters step backwards).
func (p *EpochAdaptive) lossSince() float64 {
	if p.signal == nil {
		return 0
	}
	a, d := p.signal()
	da, dd := a-p.lastArr, d-p.lastDrop
	if da < 0 || dd < 0 {
		da, dd = a, d
	}
	p.lastArr, p.lastDrop = a, d
	if da <= 0 {
		return 0
	}
	return float64(dd) / float64(da)
}

func (p *EpochAdaptive) adapt(now sim.Time) {
	rej := float64(p.nRejects) / float64(p.nProbes)
	loss := p.lossSince()
	switch {
	case loss > p.cfg.TargetLoss:
		// Admitted traffic is losing packets: tighten.
		p.eps *= 1 - epsStep
	case loss <= p.cfg.TargetLoss/2 && rej > 0:
		// Clean link but probes are bouncing: relax.
		p.eps *= 1 + epsStep
	}
	p.eps = clamp(p.eps)
	if p.hook != nil {
		p.hook(now, EpochStats{Epoch: p.epoch, Eps: p.eps, RejectRate: rej, LossRate: loss})
	}
	p.epoch++
	p.nProbes, p.nRejects = 0, 0
}

// clamp puts x into [epsMin, epsMax]; NaN reads as epsMin.
func clamp(x float64) float64 {
	if math.IsNaN(x) || x < epsMin {
		return epsMin
	}
	return min(x, epsMax)
}
