package admission_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"eac/internal/admission"
	"eac/internal/netsim"
	"eac/internal/sim"
)

// runProbe executes one complete probe handshake over a scripted fate
// pattern (the lossyChannel of fuzz_test.go) and returns its result.
func runProbe(t *testing.T, cfg admission.Config, pattern []byte) admission.Result {
	t.Helper()
	s := sim.New()
	var pool netsim.Pool
	ch := &lossyChannel{pattern: pattern, pool: &pool}
	var results []admission.Result
	p := admission.NewProber(s, cfg, 0, 256e3, 125, []netsim.Receiver{ch}, &pool,
		func(r admission.Result) { results = append(results, r) })
	ch.prober = p
	p.Start(0)
	s.RunAll()
	if len(results) != 1 {
		t.Fatalf("done callback fired %d times", len(results))
	}
	return results[0]
}

// TestStaticEpsilonMatchesLegacyProber is the policy-layer conservation
// property: for randomized probe traces, routing the decision through
// StaticEpsilon must reproduce the prober's own verdict exactly —
// Decide passes the class threshold through untouched, and Judge echoes
// the probe's own accept bit. This is the unit-level face of the golden
// byte-identity contract.
func TestStaticEpsilonMatchesLegacyProber(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pol := admission.StaticEpsilon{}
	for trial := 0; trial < 200; trial++ {
		eps := rng.Float64() * 0.2
		kind := admission.ProberKind(rng.Intn(3))
		pattern := make([]byte, 1+rng.Intn(64))
		rng.Read(pattern)

		d := pol.Decide(admission.Request{Now: 0, FlowID: trial, BaseEps: eps})
		if d.Action != admission.ActionProbe || d.Eps != eps {
			t.Fatalf("trial %d: StaticEpsilon.Decide = %+v, want probe at eps=%v", trial, d, eps)
		}

		cfg := admission.Config{
			Design:   admission.DropInBand,
			Kind:     kind,
			Eps:      d.Eps,
			ProbeDur: 1 * sim.Second,
			StageDur: 200 * sim.Millisecond,
			Guard:    50 * sim.Millisecond,
		}
		res := runProbe(t, cfg, pattern)
		got := pol.Judge(res.Elapsed, admission.Observation{Res: res, Attempts: 1, Eps: d.Eps})
		want := admission.OutcomeBlock
		if res.Accepted {
			want = admission.OutcomeAccept
		}
		if got != want {
			t.Fatalf("trial %d (kind=%v eps=%v): Judge = %v, prober said accepted=%v",
				trial, kind, eps, got, res.Accepted)
		}
	}
}

// TestTokenBucketExactRefillBoundary pins the admission boundary at exact
// token equality: an attempt finding tokens == cost (one token) is admitted
// (and drains the bucket), while tokens one refill-instant short of cost is
// rejected. Refill is continuous, so the boundary is exercised with
// controlled clock values.
func TestTokenBucketExactRefillBoundary(t *testing.T) {
	// cap 2, rate 0.5 token/s. Drain the full bucket with two admissions
	// at t=0.
	p := admission.NewTokenBucket(2, 0.5)
	for i := 0; i < 2; i++ {
		if d := p.Decide(admission.Request{Now: 0}); d.Action != admission.ActionAdmit {
			t.Fatalf("admission %d from a full bucket: %+v", i, d)
		}
	}
	// Empty. After exactly 2 s the refill yields tokens == cost: admit.
	if d := p.Decide(admission.Request{Now: 2 * sim.Second}); d.Action != admission.ActionAdmit {
		t.Fatalf("tokens == cost must admit, got %+v", d)
	}
	// That admission drained it again; 1.999 s refills just under cost.
	now := 2*sim.Second + 1999*sim.Millisecond
	if d := p.Decide(admission.Request{Now: now}); d.Action != admission.ActionReject {
		t.Fatalf("tokens just under cost must reject, got %+v", d)
	}
	// The rejected attempt spends nothing: 1 ms later the missing
	// millisecond of refill arrives and the same attempt is admitted.
	if d := p.Decide(admission.Request{Now: 4 * sim.Second}); d.Action != admission.ActionAdmit {
		t.Fatalf("refill completing cost must admit, got %+v", d)
	}
	// Refill never exceeds cap: after a long idle gap the bucket holds
	// cap tokens, funding exactly cap/cost admissions.
	long := 1000 * sim.Second
	for i := 0; i < 2; i++ {
		if d := p.Decide(admission.Request{Now: long}); d.Action != admission.ActionAdmit {
			t.Fatalf("admission %d from a recapped bucket: %+v", i, d)
		}
	}
	if d := p.Decide(admission.Request{Now: long}); d.Action != admission.ActionReject {
		t.Fatalf("bucket must cap at capacity, got %+v", d)
	}
}

// adaptiveCfg is a small adaptation config: four probes per epoch.
func adaptiveCfg() admission.PolicyConfig {
	return admission.PolicyConfig{
		Kind:       admission.PolicyEpochAdaptive,
		Epoch:      4,
		TargetLoss: 0.01,
	}.WithDefaults()
}

// reject returns a rejected-probe observation at the policy's current ε.
func reject(p *admission.EpochAdaptive) admission.Observation {
	return admission.Observation{
		Res: admission.Result{Accepted: false, Fraction: 1},
		Eps: p.Eps(),
	}
}

// TestEpochBoundaryExact pins the epoch boundary: with Epoch=N the
// adaptation fires on the Nth judged probe, not the N-1th and not the
// N+1th. The loss signal reads clean and every probe is rejected, so each
// epoch relaxes ε by exactly (1+EpsStep).
func TestEpochBoundaryExact(t *testing.T) {
	pc := adaptiveCfg()
	ac := admission.Config{Eps: 0.02}
	p := admission.NewEpochAdaptive(pc, ac)
	var epochs []admission.EpochStats
	p.SetEpochHook(func(_ sim.Time, st admission.EpochStats) { epochs = append(epochs, st) })

	eps0 := p.Eps()
	for i := 1; i < pc.Epoch; i++ {
		if out := p.Judge(0, reject(p)); out != admission.OutcomeBlock {
			t.Fatalf("probe %d: outcome %v", i, out)
		}
		if p.Eps() != eps0 {
			t.Fatalf("eps moved after %d < Epoch probes: %v -> %v", i, eps0, p.Eps())
		}
	}
	if len(epochs) != 0 {
		t.Fatalf("epoch hook fired before the boundary: %+v", epochs)
	}
	p.Judge(0, reject(p)) // the Nth probe
	if len(epochs) != 1 || epochs[0].Epoch != 0 {
		t.Fatalf("exactly one epoch must complete at probe N, got %+v", epochs)
	}
	want := eps0 * (1 + admission.EpsStep)
	if math.Abs(p.Eps()-want) > 1e-12 {
		t.Fatalf("clean-link all-rejected epoch must relax eps to %v, got %v", want, p.Eps())
	}
	if epochs[0].RejectRate != 1 || epochs[0].LossRate != 0 {
		t.Fatalf("epoch stats: %+v", epochs[0])
	}
	// The counter reset: the next epoch needs N more probes again.
	for i := 0; i < pc.Epoch-1; i++ {
		p.Judge(0, reject(p))
	}
	if len(epochs) != 1 {
		t.Fatalf("second epoch fired early after %d probes", pc.Epoch-1)
	}
}

// TestAdaptationUnderFullMarking drives the policy with 100%-marked
// probes (every probe measures fraction 1 and is rejected). With a clean
// loss signal ε climbs to EpsMax and sticks; with a lossy signal ε decays
// to EpsMin and sticks. Both trajectories stay clamped and finite.
func TestAdaptationUnderFullMarking(t *testing.T) {
	pc := adaptiveCfg()
	ac := admission.Config{Eps: 0.02}

	t.Run("clean link relaxes to EpsMax", func(t *testing.T) {
		p := admission.NewEpochAdaptive(pc, ac)
		last := p.Eps()
		for e := 0; e < 20; e++ {
			for i := 0; i < pc.Epoch; i++ {
				p.Judge(0, reject(p))
			}
			if p.Eps() < last {
				t.Fatalf("epoch %d: eps decreased %v -> %v on a clean link", e, last, p.Eps())
			}
			last = p.Eps()
		}
		if last != admission.EpsMax {
			t.Fatalf("eps must saturate at EpsMax=%v, got %v", admission.EpsMax, last)
		}
	})

	t.Run("lossy link tightens to EpsMin", func(t *testing.T) {
		p := admission.NewEpochAdaptive(pc, ac)
		var arrived, dropped int64
		p.SetLossSignal(func() (int64, int64) { return arrived, dropped })
		last := p.Eps()
		for e := 0; e < 20; e++ {
			arrived += 1000
			dropped += 100 // 10% epoch loss, far above TargetLoss
			for i := 0; i < pc.Epoch; i++ {
				p.Judge(0, reject(p))
			}
			if p.Eps() > last {
				t.Fatalf("epoch %d: eps increased %v -> %v on a lossy link", e, last, p.Eps())
			}
			last = p.Eps()
		}
		if last != admission.EpsMin {
			t.Fatalf("eps must saturate at EpsMin=%v, got %v", admission.EpsMin, last)
		}
	})
}

// TestEpochAdaptiveExtendsStaleRejects pins the extend rule: a probe
// rejected against a stale tighter threshold whose measured fraction
// already satisfies the relaxed current ε is extended (and not counted),
// while a fraction above the current ε still blocks.
func TestEpochAdaptiveExtendsStaleRejects(t *testing.T) {
	pc := adaptiveCfg()
	p := admission.NewEpochAdaptive(pc, admission.Config{Eps: 0.04})
	stale := admission.Observation{
		Res: admission.Result{Accepted: false, Fraction: 0.03},
		Eps: 0.02, // ran against a tighter threshold than the current 0.04
	}
	if out := p.Judge(0, stale); out != admission.OutcomeExtend {
		t.Fatalf("stale tight-threshold reject must extend, got %v", out)
	}
	bad := admission.Observation{
		Res: admission.Result{Accepted: false, Fraction: 0.09},
		Eps: 0.02,
	}
	if out := p.Judge(0, bad); out != admission.OutcomeBlock {
		t.Fatalf("fraction above current eps must block, got %v", out)
	}
}

// TestNeverAdmitRejectsWithoutProbing pins the trivial policies' shapes.
func TestNeverAdmitRejectsWithoutProbing(t *testing.T) {
	if d := (admission.NeverAdmit{}).Decide(admission.Request{}); d.Action != admission.ActionReject {
		t.Fatalf("NeverAdmit.Decide = %+v", d)
	}
	if d := (admission.AlwaysAdmit{}).Decide(admission.Request{}); d.Action != admission.ActionAdmit {
		t.Fatalf("AlwaysAdmit.Decide = %+v", d)
	}
}

// TestPolicyKindRoundTrip pins the name mapping the CLI flags rely on.
func TestPolicyKindRoundTrip(t *testing.T) {
	kinds := []admission.PolicyKind{admission.PolicyStatic, admission.PolicyAlwaysAdmit,
		admission.PolicyNeverAdmit, admission.PolicyTokenBucket, admission.PolicyEpochAdaptive}
	for _, k := range kinds {
		got, err := admission.ParsePolicyKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
		pc := admission.PolicyConfig{Kind: k}.WithDefaults()
		if err := pc.Validate(); err != nil {
			t.Fatalf("default %v config invalid: %v", k, err)
		}
		// Probes is what the command reads to reject ε, the design and
		// the prober: it must say what Decide does with a first attempt.
		dec := admission.NewPolicy(pc, admission.Config{Eps: 0.01}).Decide(admission.Request{BaseEps: 0.01})
		if probed := dec.Action == admission.ActionProbe; probed != k.Probes() {
			t.Errorf("%v: first Decide probes = %v, Probes() = %v", k, probed, k.Probes())
		}
	}
	if _, err := admission.ParsePolicyKind("bogus"); err == nil {
		t.Fatal("ParsePolicyKind accepted garbage")
	}
}

// FuzzEpochAdaptive feeds the adaptive policy an arbitrary stream of
// probe judgments and loss-counter increments and checks its contract:
// ε stays inside [EpsMin, EpsMax] and finite (never NaN/Inf), and the whole
// trajectory is deterministic — replaying the identical stream on a fresh
// instance reproduces every decision and every ε bit for bit.
//
// Run with: go test ./internal/admission -fuzz FuzzEpochAdaptive
func FuzzEpochAdaptive(f *testing.F) {
	f.Add(uint8(4), 0.01, []byte{})
	f.Add(uint8(1), 0.0, []byte{0, 1, 2, 3, 255, 128})
	f.Add(uint8(7), 0.5, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, epoch uint8, target float64, stream []byte) {
		pc := admission.PolicyConfig{
			Kind:       admission.PolicyEpochAdaptive,
			Epoch:      int(epoch),
			TargetLoss: target,
		}.WithDefaults()
		if pc.Validate() != nil {
			t.Skip()
		}
		ac := admission.Config{Eps: 0.02}.WithDefaults()

		// One pass of the decision stream against a fresh policy; returns
		// the trajectory of (outcome, eps) for determinism
		// comparison. Loss counters advance from the stream bytes too.
		run := func() []string {
			p := admission.NewEpochAdaptive(pc, ac)
			var arrived, dropped int64
			p.SetLossSignal(func() (int64, int64) { return arrived, dropped })
			var trace []string
			for _, b := range stream {
				arrived += int64(b>>4) * 100
				dropped += int64(b&0x7) * 10
				d := p.Decide(admission.Request{Now: sim.Time(len(trace)) * sim.Second})
				if d.Action != admission.ActionProbe {
					t.Fatalf("adaptive policy must always probe, got %+v", d)
				}
				frac := float64(b) / 255
				res := admission.Result{Accepted: frac <= d.Eps, Fraction: frac}
				out := p.Judge(0, admission.Observation{Res: res, Eps: d.Eps})

				eps := p.Eps()
				if math.IsNaN(eps) || math.IsInf(eps, 0) {
					t.Fatalf("eps went non-finite: %v", eps)
				}
				if eps < admission.EpsMin || eps > admission.EpsMax {
					t.Fatalf("eps %v escaped [%v, %v]", eps, admission.EpsMin, admission.EpsMax)
				}
				trace = append(trace, string(rune('A'+int(out)))+" "+formatBits(eps))
			}
			return trace
		}

		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d diverged on replay: %q vs %q", i, a[i], b[i])
			}
		}
	})
}

// formatBits renders a float for exact (bitwise) comparison.
func formatBits(x float64) string {
	return strconv.FormatUint(math.Float64bits(x), 16)
}
