package fluid

import (
	"fmt"
	"math"
)

// This file implements the transient mean-field companion to the
// stationary GTH model: instead of solving the full (a, p) chain, it
// integrates the deterministic drift of the mean populations
//
//	da/dt = p * nu * phi * P_adm(rho) - a * mu
//	dp/dt = lambda(t)                 - p * nu * phi
//
// with a fixed-step RK4, where phi is the delivery fraction of the
// physical queue (probes are exponential in length, so congestion slows
// their completion exactly as in fluid.go) and P_adm is the probability
// that a completing probe's measurement passes the eps threshold. The
// admission signal is the diffusion-approximation mark/drop probability
// of markmodel.go evaluated at the instantaneous load rho(t), so the same
// integrator covers bufferless, drop-tail, RED, and virtual-queue links.
// A hard threshold would make the drift discontinuous; instead the
// measurement is smoothed by the probe's own sampling noise: a probe that
// observes n packets sees a loss fraction that is approximately
// Normal(pm, pm(1-pm)/n), so
//
//	P_adm = Phi((eps - pm) * sqrt(n) / sqrt(pm (1-pm)))
//
// which converges to the perfect-measurement step as n grows. The probing
// population is capped at Params.MaxP, mirroring the truncation of the
// stationary chain, so the thrashing regime (probers piling up against
// the ceiling, utilization collapsing) is reproduced rather than
// diverging. Under constant load the trajectory settles to a fixed point
// that tracks the stationary model's means; TestTransientMatchesStationary
// pins the agreement across a load x probe-length x eps grid.

// Transient defines a time-varying mean-field solve. The embedded Params
// carry the model constants (zero fields default exactly as in Solve; see
// the Params unset convention). The additional fields select the queue
// model and the integration window; their zeros also mean "use the
// default" and every default is strictly positive, so the Params
// convention carries over.
type Transient struct {
	Params

	// Model selects the queue/marking approximation that produces the
	// admission signal. The zero value, QueueBufferless, is the paper's
	// own fluid measurement and the one comparable to Solve.
	Model QueueModel
	// BufferPkts is the buffer depth, in packets, seen by the queue
	// model. Ignored by QueueBufferless. Default 400.
	BufferPkts int
	// VQFactor scales the virtual queue's shadow service rate for
	// QueueVirtual (the marking signal sees rho/VQFactor). Default 1.
	VQFactor float64
	// ProbePkts is the number of packets a probe measurement averages
	// over; it sets the sharpness of the smoothed admission threshold.
	// Default 64.
	ProbePkts int

	// StepSec is the RK4 step. Default 0.01 s.
	StepSec float64
	// HorizonSec is the end of the integration. Default 20 * Tlife.
	HorizonSec float64
	// WarmupSec is the start of the metric-averaging window (metrics in
	// the Result cover [WarmupSec, HorizonSec]). Default HorizonSec / 2.
	WarmupSec float64
	// SampleSec, when positive, records a TransientSample every SampleSec
	// of model time (plus the initial and final states).
	SampleSec float64

	// A0 and P0 are the initial accepted and probing populations. Zero is
	// a genuine empty system (not "unset"); prepopulated scenarios pass
	// their expected populations.
	A0, P0 float64
}

// withDefaults fills unset transient fields; the embedded Params default
// via Params.WithDefaults as usual.
func (tr Transient) withDefaults() Transient {
	tr.Params = tr.Params.WithDefaults()
	if tr.BufferPkts == 0 {
		tr.BufferPkts = 400
	}
	if tr.VQFactor == 0 {
		tr.VQFactor = 1
	}
	if tr.ProbePkts == 0 {
		tr.ProbePkts = 64
	}
	if tr.StepSec == 0 {
		tr.StepSec = 0.01
	}
	if tr.HorizonSec == 0 {
		tr.HorizonSec = 20 * tr.Tlife
	}
	if tr.WarmupSec == 0 {
		tr.WarmupSec = tr.HorizonSec / 2
	}
	return tr
}

// TransientSample is one point of the fluid trajectory.
type TransientSample struct {
	T     float64 // model time, s
	A     float64 // mean accepted population E[a]
	P     float64 // mean probing population E[p]
	Rho   float64 // instantaneous offered load (a+p)r/C
	Mark  float64 // admission-signal mark/drop probability at Rho
	Admit float64 // probability a completing probe is admitted
	Util  float64 // accepted-load utilization a*r/C
}

// TransientResult bundles the window-averaged metrics (directly
// comparable to the stationary Result) with the sampled trajectory and
// the final state.
type TransientResult struct {
	Result
	// Samples is the recorded trajectory (empty unless SampleSec > 0).
	Samples []TransientSample
	// FinalA and FinalP are the populations at HorizonSec.
	FinalA, FinalP float64
}

// admitProb is the smoothed perfect-measurement test: the probability
// that a probe averaging n packets at true mark probability pm observes a
// fraction <= eps.
func admitProb(pm, eps float64, n int) float64 {
	sigma2 := pm * (1 - pm) / float64(n)
	if sigma2 <= 0 {
		if pm <= eps {
			return 1
		}
		return 0
	}
	z := (eps - pm) / math.Sqrt(sigma2)
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// signals evaluates the queue models at populations (a, p): the physical
// loss fraction (which slows probes and destroys data), the admission
// signal pm, and the admission probability.
func (tr Transient) signals(a, p float64) (lossPhys, pm, padm float64) {
	rho := (a + p) * tr.RateBps / tr.CapBps
	switch tr.Model {
	case QueueVirtual:
		// Marks come from the shadow queue; physical drops from the real
		// drop-tail buffer behind it.
		lossPhys = MarkProb(QueueDropTail, rho, tr.BufferPkts)
		pm = MarkProb(QueueVirtual, rho/tr.VQFactor, tr.BufferPkts)
	default:
		lossPhys = MarkProb(tr.Model, rho, tr.BufferPkts)
		pm = lossPhys
	}
	padm = admitProb(pm, tr.Eps, tr.ProbePkts)
	return
}

// deriv is the mean-field drift at populations (a, p); the offered load
// is constant, so the drift does not depend on time.
func (tr Transient) deriv(a, p float64) (da, dp float64) {
	mu, nu := 1/tr.Tlife, 1/tr.Tprobe
	lossPhys, _, padm := tr.signals(a, p)
	phi := 1 - lossPhys
	done := p * nu * phi
	da = done*padm - a*mu
	dp = tr.Lambda - done
	// Mirror the stationary chain's truncation: probers cannot pile past
	// MaxP (arrivals finding the ceiling are turned away).
	if p >= float64(tr.MaxP) && dp > 0 {
		dp = 0
	}
	return
}

// SolveTransient integrates the mean-field ODE and returns window-
// averaged metrics plus the sampled trajectory.
func SolveTransient(tr Transient) (TransientResult, error) {
	tr = tr.withDefaults()
	p := tr.Params
	if p.Lambda <= 0 || p.Tlife <= 0 || p.Tprobe <= 0 || p.CapBps <= 0 || p.RateBps <= 0 {
		return TransientResult{}, fmt.Errorf("fluid: all rates and durations must be positive: %+v", p)
	}
	if p.Eps < 0 || p.Eps >= 1 {
		return TransientResult{}, fmt.Errorf("fluid: eps must be in [0,1): %v", p.Eps)
	}
	if tr.StepSec <= 0 || tr.HorizonSec <= 0 {
		return TransientResult{}, fmt.Errorf("fluid: step and horizon must be positive (step=%v horizon=%v)", tr.StepSec, tr.HorizonSec)
	}
	if tr.WarmupSec < 0 || tr.WarmupSec >= tr.HorizonSec {
		return TransientResult{}, fmt.Errorf("fluid: warmup must lie in [0, horizon) (warmup=%v horizon=%v)", tr.WarmupSec, tr.HorizonSec)
	}
	if tr.A0 < 0 || tr.P0 < 0 {
		return TransientResult{}, fmt.Errorf("fluid: initial populations must be non-negative (a0=%v p0=%v)", tr.A0, tr.P0)
	}

	h := tr.StepSec
	steps := int(math.Ceil(tr.HorizonSec / h))
	a, q := tr.A0, tr.P0

	var res TransientResult
	sample := func(t, a, q float64) {
		_, pm, padm := tr.signals(a, q)
		res.Samples = append(res.Samples, TransientSample{
			T: t, A: a, P: q,
			Rho:   (a + q) * p.RateBps / p.CapBps,
			Mark:  pm,
			Admit: padm,
			Util:  a * p.RateBps / p.CapBps,
		})
	}
	if tr.SampleSec > 0 {
		sample(0, a, q)
	}
	nextSample := tr.SampleSec

	// Window accumulators (left-point sums over steps inside the window).
	var wSteps int
	var accA, accP float64
	var inbandDelivered, offered, lost, dataOff, dataLost float64
	var probeDone, probeRej float64

	nu := 1 / p.Tprobe
	for i := 0; i < steps; i++ {
		t := float64(i) * h

		if t >= tr.WarmupSec {
			lossPhys, _, padm := tr.signals(a, q)
			phi := 1 - lossPhys
			R := (a + q) * p.RateBps
			dataRate := a * p.RateBps
			wSteps++
			accA += a
			accP += q
			inbandDelivered += dataRate * (1 - lossPhys)
			offered += R
			lost += R * lossPhys
			dataOff += dataRate
			dataLost += dataRate * lossPhys
			done := q * nu * phi
			probeDone += done
			probeRej += done * (1 - padm)
		}

		k1a, k1q := tr.deriv(a, q)
		k2a, k2q := tr.deriv(a+h/2*k1a, q+h/2*k1q)
		k3a, k3q := tr.deriv(a+h/2*k2a, q+h/2*k2q)
		k4a, k4q := tr.deriv(a+h*k3a, q+h*k3q)
		a += h / 6 * (k1a + 2*k2a + 2*k3a + k4a)
		q += h / 6 * (k1q + 2*k2q + 2*k3q + k4q)
		if a < 0 {
			a = 0
		}
		if q < 0 {
			q = 0
		}
		if maxP := float64(p.MaxP); q > maxP {
			q = maxP
		}

		if tr.SampleSec > 0 && t+h >= nextSample {
			sample(t+h, a, q)
			nextSample += tr.SampleSec
		}
	}

	if wSteps > 0 {
		n := float64(wSteps)
		res.MeanAccepted = accA / n
		res.MeanProbing = accP / n
		res.Utilization = accA / n * p.RateBps / p.CapBps
		res.InBandUtilization = inbandDelivered / n / p.CapBps
		if offered > 0 {
			res.InBandLoss = lost / offered
		}
		if dataOff > 0 {
			res.DataLoss = dataLost / dataOff
		}
		if probeDone > 0 {
			res.Blocking = probeRej / probeDone
		}
	}
	res.FinalA, res.FinalP = a, q
	return res, nil
}
