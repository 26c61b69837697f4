package fluid

import (
	"math"
	"testing"
)

// TestTransientMatchesStationary is the convergence property test for the
// mean-field integrator: under constant load the ODE trajectory must
// settle to the stationary model's operating point. Mean-field is exact
// only in the many-flows limit, so the pin runs at C/r = 78 flows (where
// the chain concentrates) across a load x probe-length x eps grid and a
// "seeds" dimension of initial conditions; tolerances were calibrated
// against the observed worst case (utilization gap 0.051 at load 1.1,
// Tprobe 0.5, eps 0 — the knee of the admission boundary, where finite-
// system fluctuations matter most).
func TestTransientMatchesStationary(t *testing.T) {
	inits := [][2]float64{{0, 0}, {6, 3}, {40, 10}}
	for _, load := range []float64{0.6, 1.1, 1.5} {
		for _, tprobe := range []float64{0.5, 2.0} {
			for _, eps := range []float64{0, 0.1} {
				p := Params{Tlife: 30, Tprobe: tprobe, CapBps: 1e7, RateBps: 128e3, Eps: eps, MaxP: 100}
				p = p.WithDefaults()
				p.Lambda = load * p.CapBps / (p.Tlife * p.RateBps)
				st, err := Solve(p)
				if err != nil {
					t.Fatal(err)
				}
				var first *TransientResult
				for _, ic := range inits {
					tr, err := SolveTransient(Transient{
						Params: p, A0: ic[0], P0: ic[1],
						HorizonSec: 2000, WarmupSec: 1500,
					})
					if err != nil {
						t.Fatal(err)
					}
					if d := math.Abs(tr.Utilization - st.Utilization); d > 0.06 {
						t.Errorf("load=%v tp=%v eps=%v ic=%v: utilization gap %.4f (transient %.4f, stationary %.4f)",
							load, tprobe, eps, ic, d, tr.Utilization, st.Utilization)
					}
					if d := math.Abs(tr.MeanProbing - st.MeanProbing); d > 0.05+0.05*st.MeanProbing {
						t.Errorf("load=%v tp=%v eps=%v ic=%v: E[p] gap %.4f (transient %.4f, stationary %.4f)",
							load, tprobe, eps, ic, d, tr.MeanProbing, st.MeanProbing)
					}
					if d := math.Abs(tr.MeanAccepted - st.MeanAccepted); d > 0.06*(p.CapBps/p.RateBps) {
						t.Errorf("load=%v tp=%v eps=%v ic=%v: E[a] gap %.4f (transient %.4f, stationary %.4f)",
							load, tprobe, eps, ic, d, tr.MeanAccepted, st.MeanAccepted)
					}
					// The fixed point must not depend on where the
					// trajectory starts.
					if first == nil {
						cp := tr
						first = &cp
					} else if d := math.Abs(tr.Utilization - first.Utilization); d > 1e-3 {
						t.Errorf("load=%v tp=%v eps=%v ic=%v: initial condition changed the fixed point by %.2e",
							load, tprobe, eps, ic, d)
					}
				}
			}
		}
	}
}

// TestTransientThrashCollapse pins the qualitative Figure 1 behavior in
// the transient model: past the probe-length transition the probing
// population pins at the truncation ceiling, utilization collapses, and
// in-band loss approaches one — matching the stationary chain on both
// sides of the transition (tau = 0.35 s puts it at Tprobe ~ 2.7 s).
func TestTransientThrashCollapse(t *testing.T) {
	base := Params{Lambda: 1 / 0.35, Tlife: 30, CapBps: 1e6, RateBps: 128e3, MaxP: 200}

	below := base
	below.Tprobe = 0.5
	rb, err := SolveTransient(Transient{Params: below, HorizonSec: 4000, WarmupSec: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Utilization < 0.7 {
		t.Errorf("below transition: utilization %.4f, want > 0.7", rb.Utilization)
	}
	if rb.FinalP > 10 {
		t.Errorf("below transition: probing population %.2f, want small", rb.FinalP)
	}

	above := base
	above.Tprobe = 10
	ra, err := SolveTransient(Transient{Params: above, HorizonSec: 4000, WarmupSec: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Utilization > 0.05 {
		t.Errorf("above transition: utilization %.4f, want collapse < 0.05", ra.Utilization)
	}
	if ra.FinalP < float64(above.MaxP)-1 {
		t.Errorf("above transition: probing population %.2f, want pinned at truncation %d", ra.FinalP, above.MaxP)
	}
	if ra.InBandLoss < 0.9 {
		t.Errorf("above transition: in-band loss %.4f, want near one", ra.InBandLoss)
	}

	st, err := Solve(above)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ra.InBandLoss - st.InBandLoss); d > 0.02 {
		t.Errorf("above transition: in-band loss gap vs stationary %.4f", d)
	}
}

func TestTransientValidation(t *testing.T) {
	if _, err := SolveTransient(Transient{Params: Params{Lambda: -1}}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := SolveTransient(Transient{Params: Params{Eps: 1.5}}); err == nil {
		t.Error("eps >= 1 accepted")
	}
	if _, err := SolveTransient(Transient{A0: -1}); err == nil {
		t.Error("negative initial population accepted")
	}
	if _, err := SolveTransient(Transient{WarmupSec: 1e9}); err == nil {
		t.Error("warmup past horizon accepted")
	}
}

// TestMarkProbModels sanity-checks the diffusion queue/marking family:
// monotonicity in load, continuity through rho = 1, the B -> infinity
// limit recovering the bufferless fluid fraction, and the virtual-queue
// model being drop-tail at the shadow load.
func TestMarkProbModels(t *testing.T) {
	for _, m := range []QueueModel{QueueBufferless, QueueDropTail, QueueREDApprox, QueueVirtual} {
		prev := -1.0
		for rho := 0.05; rho < 3; rho += 0.05 {
			p := MarkProb(m, rho, 100)
			if p < 0 || p > 1 {
				t.Fatalf("%v: MarkProb(%v) = %v out of [0,1]", m, rho, p)
			}
			if p < prev-1e-12 {
				t.Fatalf("%v: MarkProb not monotone at rho=%v: %v < %v", m, rho, p, prev)
			}
			prev = p
		}
	}

	// Continuity at rho = 1 for drop-tail: both sides approach 1/(B+1).
	b := 100
	want := 1.0 / float64(b+1)
	for _, rho := range []float64{1 - 1e-7, 1, 1 + 1e-7} {
		if p := MarkProb(QueueDropTail, rho, b); math.Abs(p-want) > 1e-4 {
			t.Errorf("drop-tail near rho=1: MarkProb(%v)=%v, want ~%v", rho, p, want)
		}
	}

	// Large buffers converge to the bufferless fraction in overload.
	rho := 1.5
	bufferless := MarkProb(QueueBufferless, rho, 0)
	if p := MarkProb(QueueDropTail, rho, 10000); math.Abs(p-bufferless) > 1e-6 {
		t.Errorf("drop-tail B->inf: %v, want bufferless %v", p, bufferless)
	}
	// And below capacity large buffers lose (almost) nothing.
	if p := MarkProb(QueueDropTail, 0.8, 10000); p > 1e-9 {
		t.Errorf("drop-tail underload with huge buffer: %v, want ~0", p)
	}

	// Virtual queue is drop-tail at the caller-scaled load.
	if MarkProb(QueueVirtual, 1.2, 50) != MarkProb(QueueDropTail, 1.2, 50) {
		t.Error("virtual queue must equal drop-tail at the shadow load")
	}

	// RED marks earlier than drop-tail once the diffusion mean queue
	// crosses MinTh (at B=400, MinTh=33: rho=0.98 gives mean queue ~48).
	if red, dt := MarkProb(QueueREDApprox, 0.98, 400), MarkProb(QueueDropTail, 0.98, 400); red <= dt {
		t.Errorf("RED should mark before drop-tail drops: red=%v droptail=%v", red, dt)
	}
}
