package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7)
	}
	if math.Abs(w.StderrMean()-w.Stddev()/math.Sqrt(8)) > 1e-12 {
		t.Fatal("stderr inconsistent with stddev")
	}
}

// TestWelfordMatchesNaive compares Welford against the two-pass formula on
// random data.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n < 2 {
			n = 2
		}
		r := NewRNG(seed)
		var w Welford
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-100, 100)
			w.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMaxTracksPeak(t *testing.T) {
	wm := NewWindowMax(1.0, 5) // 1 s samples, 5 s window
	// 1000 bits/s for 3 seconds.
	for ti := 0; ti < 30; ti++ {
		wm.Arrive(float64(ti)*0.1, 100)
	}
	got := wm.Estimate(3.0)
	if math.Abs(got-1000) > 1e-9 {
		t.Fatalf("estimate = %v, want 1000", got)
	}
	// Silence for 10 s: the window forgets the peak.
	got = wm.Estimate(13.0)
	if got != 0 {
		t.Fatalf("estimate after silence = %v, want 0", got)
	}
}

func TestWindowMaxBoost(t *testing.T) {
	wm := NewWindowMax(1.0, 3)
	wm.Arrive(0.5, 500)
	wm.Boost(2000)
	got := wm.Estimate(0.9) // still inside first period: max sample 0 + boost
	if got != 2000 {
		t.Fatalf("estimate = %v, want 2000 (boost only)", got)
	}
	// Within the window the boost persists on top of the measurement.
	wm.Arrive(1.2, 5000)
	got = wm.Estimate(2.5)
	if got != 5000+2000 {
		t.Fatalf("estimate = %v, want 7000 (sample + live boost)", got)
	}
	// After a full window (3 periods) without new admissions, the boost
	// retires and the measured peak alone remains (the 5000-bit sample
	// is still within the 3-period window at t=4.5).
	got = wm.Estimate(4.5)
	if got != 5000 {
		t.Fatalf("estimate = %v, want 5000 (boost retired)", got)
	}
}

func TestWindowMaxBoostRollback(t *testing.T) {
	wm := NewWindowMax(1.0, 3)
	wm.Boost(1000)
	wm.Boost(-1000) // failed multi-hop admission rolls back
	if got := wm.Estimate(0.5); got != 0 {
		t.Fatalf("estimate = %v after rollback, want 0", got)
	}
}

func TestWindowMaxPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindowMax(0, 5)
}
