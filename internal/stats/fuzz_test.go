package stats_test

import (
	"math"
	"testing"

	"eac/internal/stats"
)

// FuzzWelford checks the online mean/variance accumulator against a naive
// two-pass reference on arbitrary float streams: the mean stays within the
// sample range, the variance is non-negative, and both agree with the
// direct computation to within floating-point slack.
//
// Run with: go test ./internal/stats -fuzz FuzzWelford
func FuzzWelford(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w stats.Welford
		xs := make([]float64, 0, len(data))
		for i, b := range data {
			// Mix magnitudes so cancellation paths get exercised.
			x := (float64(b) - 128) * math.Pow(10, float64(i%5)-2)
			xs = append(xs, x)
			w.Add(x)
		}
		if w.N() != int64(len(xs)) {
			t.Fatalf("N=%d want %d", w.N(), len(xs))
		}
		if len(xs) == 0 {
			if w.Mean() != 0 || w.Var() != 0 {
				t.Fatalf("empty accumulator not zero: mean=%v var=%v", w.Mean(), w.Var())
			}
			return
		}
		lo, hi, sum := xs[0], xs[0], 0.0
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			sum += x
		}
		mean := sum / float64(len(xs))
		slack := 1e-9 * (math.Abs(lo) + math.Abs(hi) + 1)
		if w.Mean() < lo-slack || w.Mean() > hi+slack {
			t.Fatalf("mean %v outside sample range [%v, %v]", w.Mean(), lo, hi)
		}
		if math.Abs(w.Mean()-mean) > slack {
			t.Fatalf("mean %v, two-pass reference %v", w.Mean(), mean)
		}
		if w.Var() < 0 {
			t.Fatalf("negative variance %v", w.Var())
		}
		if len(xs) >= 2 {
			var m2 float64
			for _, x := range xs {
				m2 += (x - mean) * (x - mean)
			}
			ref := m2 / float64(len(xs)-1)
			if math.Abs(w.Var()-ref) > 1e-6*(ref+1) {
				t.Fatalf("var %v, two-pass reference %v", w.Var(), ref)
			}
		}
	})
}

// FuzzWindowMax checks the Measured Sum estimator under arbitrary
// interleavings of arrivals, boosts and reads with non-decreasing time:
// the estimate is never negative without a pending negative boost, never
// exceeds the largest per-period arrival rate plus outstanding boost, and
// a quiet window decays the estimate to the boost alone.
//
// Run with: go test ./internal/stats -fuzz FuzzWindowMax
func FuzzWindowMax(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 2, 0, 0, 200, 2, 0})
	f.Add([]byte{0, 255, 0, 255, 2, 0, 1, 1, 2, 0})
	f.Add([]byte("000\x02200"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			period = 0.1
			nPer   = 5
		)
		wm := stats.NewWindowMax(period, nPer)
		now := 0.0
		boost := 0.0
		maxRate := 0.0 // upper bound: busiest possible period
		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k], float64(data[k+1])
			now += arg * 0.01
			switch op % 3 {
			case 0:
				bits := arg * 1000
				wm.Arrive(now, bits)
				// Any number of arrivals can land in one period, so only the
				// sum of the per-call rates bounds a period's average (the
				// third seed: 48 kb then 2 kb inside [0.4, 0.5)).
				maxRate += bits / period
			case 1:
				wm.Boost(arg * 100)
				boost += arg * 100
			case 2:
				est := wm.Estimate(now)
				if est < -1e-9 {
					t.Fatalf("negative estimate %v", est)
				}
				// The estimator's internal boost retires after a quiet
				// window, so it never exceeds the reference sum; the upper
				// bound therefore remains valid throughout.
				if est > maxRate+boost+1e-9 {
					t.Fatalf("estimate %v exceeds bound %v", est, maxRate+boost)
				}
			}
			if op%3 == 2 && arg == 255 {
				// Long jump: after nPer+1 clean periods both the window
				// samples and the boost must have decayed to zero.
				far := now + float64(nPer+1)*period
				if est := wm.Estimate(far); est > 1e-9 {
					t.Fatalf("estimate %v did not decay after quiet window", est)
				}
				boost = 0
				maxRate = 0
				now = far
			}
		}
	})
}
