package stats

import "testing"

func TestLogHistBuckets(t *testing.T) {
	var h LogHist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Add(v)
	}
	if h.N() != 9 {
		t.Fatalf("N = %d, want 9", h.N())
	}
	want := map[int64]int64{ // lo -> count
		0: 1, 1: 1, 2: 2, 4: 2, 8: 1, 512: 1, 1024: 1,
	}
	got := map[int64]int64{}
	h.Buckets(func(lo, hi, count int64) {
		got[lo] = count
		if hi < lo {
			t.Errorf("bucket [%d,%d] has hi < lo", lo, hi)
		}
	})
	for lo, c := range want {
		if got[lo] != c {
			t.Errorf("bucket lo=%d count = %d, want %d", lo, got[lo], c)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d non-empty buckets, want %d: %v", len(got), len(want), got)
	}
}

// TestLogHistQuantileConservative: the quantile estimate never
// underestimates the true quantile and overestimates by less than the
// bucket width (2x).
func TestLogHistQuantileConservative(t *testing.T) {
	var h LogHist
	r := NewRNG(42)
	max := int64(0)
	for i := 0; i < 10000; i++ {
		v := int64(r.Intn(1 << 20))
		if v > max {
			max = v
		}
		h.Add(v)
	}
	q := h.Quantile(1.0)
	if q < max {
		t.Fatalf("Quantile(1.0) = %d < true max %d", q, max)
	}
	if max > 0 && q >= 2*max {
		t.Fatalf("Quantile(1.0) = %d not within 2x of true max %d", q, max)
	}
	if got := h.Quantile(0); got < 0 {
		t.Fatalf("Quantile(0) = %d", got)
	}
	var empty LogHist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestLogHistMeanExact(t *testing.T) {
	var h LogHist
	h.Add(10)
	h.Add(20)
	h.Add(30)
	h.Add(30)
	if h.Mean() != 22.5 || h.N() != 4 {
		t.Fatalf("Mean = %v, N = %d, want 22.5, 4", h.Mean(), h.N())
	}
	h.Add(-7) // clamps to 0
	if h.Mean() != 18 {
		t.Fatalf("Mean = %v after clamped add, want 18", h.Mean())
	}
}

func TestLogHistTopBucketEdges(t *testing.T) {
	var h LogHist
	const maxInt64 = int64(^uint64(0) >> 1)
	h.Add(maxInt64)
	if got := h.Quantile(1.0); got != maxInt64 {
		t.Fatalf("Quantile(1.0) = %d, want %d", got, maxInt64)
	}
	hit := false
	h.Buckets(func(lo, hi, count int64) {
		hit = true
		if hi != maxInt64 || lo <= 0 || count != 1 {
			t.Fatalf("top bucket [%d,%d] count %d", lo, hi, count)
		}
	})
	if !hit {
		t.Fatal("no bucket reported")
	}
}
