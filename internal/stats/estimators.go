package stats

import "math"

// Welford accumulates a sample mean and variance online (Welford's
// algorithm). The zero value is an empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// StderrMean returns the standard error of the mean.
func (w *Welford) StderrMean() float64 {
	if w.n < 2 {
		return 0
	}
	return w.Stddev() / math.Sqrt(float64(w.n))
}

// WindowMax is the Measured Sum load estimator of Jamin, Shenker and Danzig
// ("Comparison of measurement-based admission control algorithms for
// Controlled-Load Service", INFOCOM '97): arrivals are averaged over
// sampling periods of length S, and the load estimate is the maximum of the
// per-period averages within the most recent measurement window of T = n*S.
// When a new flow is admitted, the estimate is immediately bumped by the
// flow's rate (handled by the caller via Boost).
type WindowMax struct {
	periodLen float64   // S, in seconds
	samples   []float64 // ring of the last n per-period averages
	idx       int
	curStart  float64 // start time of the current period
	curBits   float64 // bits that arrived in the current period
	boost     float64 // rates of recently admitted flows not yet measured
	boostAge  int     // completed periods since the last Boost
}

// NewWindowMax returns an estimator with sampling period s seconds and a
// window of n periods.
func NewWindowMax(s float64, n int) *WindowMax {
	if s <= 0 || n <= 0 {
		panic("stats: NewWindowMax requires positive period and count")
	}
	return &WindowMax{periodLen: s, samples: make([]float64, n)}
}

// roll closes out any sampling periods that have ended by time t.
func (wm *WindowMax) roll(t float64) {
	for t-wm.curStart >= wm.periodLen {
		avg := wm.curBits / wm.periodLen
		wm.samples[wm.idx] = avg
		wm.idx = (wm.idx + 1) % len(wm.samples)
		wm.curBits = 0
		wm.curStart += wm.periodLen
		// Once a full measurement window has elapsed since the last
		// admission, the window's samples reflect the admitted flows and
		// the boost is retired, per the Measured Sum description.
		if wm.boost != 0 {
			wm.boostAge++
			if wm.boostAge >= len(wm.samples) {
				wm.boost = 0
			}
		}
	}
}

func (wm *WindowMax) maxSample() float64 {
	m := 0.0
	for _, v := range wm.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Arrive records that bits arrived at time t (seconds).
func (wm *WindowMax) Arrive(t, bits float64) {
	wm.roll(t)
	wm.curBits += bits
}

// Boost raises the estimate by rate (bits/s) to account for a just-admitted
// flow whose traffic has not yet been measured. A negative rate rolls back
// a failed multi-hop reservation.
func (wm *WindowMax) Boost(rate float64) {
	wm.boost += rate
	wm.boostAge = 0
}

// Estimate returns the current load estimate in bits/s at time t.
func (wm *WindowMax) Estimate(t float64) float64 {
	wm.roll(t)
	return wm.maxSample() + wm.boost
}
