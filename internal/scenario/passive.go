package scenario

import (
	"eac/internal/admission"
	"eac/internal/sim"
)

// routerPolicy is a router method (MBAC, Passive) behind admission.Policy:
// the router's state admits or rejects the flow at the arrival instant, and
// nothing is probed. A rejection is final, as every policy rejection is.
type routerPolicy func(admission.Request) bool

// Decide implements admission.Policy.
func (p routerPolicy) Decide(req admission.Request) admission.Decision {
	if p(req) {
		return admission.Decision{Action: admission.ActionAdmit}
	}
	return admission.Decision{Action: admission.ActionReject}
}

// Judge implements admission.Policy (unreachable: a router policy never probes).
func (routerPolicy) Judge(sim.Time, admission.Observation) admission.Outcome {
	return admission.OutcomeBlock
}

// lossMonitor is the passive (egress-router) measurement device: a sliding
// window of per-period packet arrival and drop counts at one link, from
// which the recent loss fraction is read at flow-arrival instants. It
// implements the alternative endpoint the paper attributes to Cetinkaya &
// Knightly [5] — "edge routers can passively monitor paths to ascertain
// the current load levels", avoiding active probing and its set-up delay.
type lossMonitor struct {
	periodLen float64 // seconds per bucket
	arr       []int64 // ring of per-period arrivals
	drop      []int64
	idx       int
	curStart  float64
	curArr    int64
	curDrop   int64
}

// passiveWindowSec is the passive monitor's sliding loss-measurement
// window, matching the active designs' 5 s probe duration.
const passiveWindowSec = 5

// newLossMonitor builds a monitor with a window of windowSec split into
// ten buckets.
func newLossMonitor(windowSec float64) *lossMonitor {
	const buckets = 10
	return &lossMonitor{
		periodLen: windowSec / buckets,
		arr:       make([]int64, buckets),
		drop:      make([]int64, buckets),
	}
}

func (lm *lossMonitor) roll(t float64) {
	for t-lm.curStart >= lm.periodLen {
		lm.arr[lm.idx] = lm.curArr
		lm.drop[lm.idx] = lm.curDrop
		lm.idx = (lm.idx + 1) % len(lm.arr)
		lm.curArr, lm.curDrop = 0, 0
		lm.curStart += lm.periodLen
	}
}

// onArrive records one packet arrival at time now.
func (lm *lossMonitor) onArrive(now sim.Time) {
	lm.roll(now.Sec())
	lm.curArr++
}

// onDrop records one packet drop at time now.
func (lm *lossMonitor) onDrop(now sim.Time) {
	lm.roll(now.Sec())
	lm.curDrop++
}

// Estimate returns the loss fraction observed over the window ending at
// now. With no traffic observed, it reports zero (an idle link admits).
func (lm *lossMonitor) Estimate(now sim.Time) float64 {
	lm.roll(now.Sec())
	arr, drop := lm.curArr, lm.curDrop
	for i := range lm.arr {
		arr += lm.arr[i]
		drop += lm.drop[i]
	}
	if arr == 0 {
		return 0
	}
	return float64(drop) / float64(arr)
}
