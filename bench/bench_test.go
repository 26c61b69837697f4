package main

import (
	"io"
	"regexp"
	"slices"
	"testing"
)

const smokeScale = 0.02

// smoke runs one workload in-process at a small scale.
func smoke(t *testing.T, w workload, seed uint64, trace bool) record {
	t.Helper()
	rc := w.gen(seed, smokeScale)
	rc.Dir = t.TempDir()
	rc.Trace = trace
	rec := execute(rc)
	if bad := check(w, rec, smokeScale, nil); len(bad) > 0 {
		t.Fatalf("%s seed %d: %v", w.name, seed, bad)
	}
	return rec
}

// smokeHarness is a harness that runs in-process at the smoke scale and
// keeps its files in the test's directory.
func smokeHarness(t *testing.T) *harness {
	t.Helper()
	h, err := newHarness(smokeScale, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	h.exe, h.tmp = "", t.TempDir()
	return h
}

// TestBenchmarkContract runs every workload, then checks what the harness
// emits against BENCHMARK.json: every declared metric is produced, names
// and units are well-formed, and the counts stay inside the contract's
// limits.
func TestBenchmarkContract(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var declared []string
	for _, w := range spec.Workloads {
		checkName("workload", w.Name)
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var have []string
	for _, w := range workloads {
		if w.ungated == "" {
			have = append(have, w.name)
		}
	}
	if !slices.Equal(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness gates %v", declared, have)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		checkName("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
	}

	// What the harness produces: end-to-end metrics per workload, and from
	// the traced pass the union over workloads of probes, pair ratios and
	// traced-run metrics.
	h := smokeHarness(t)
	res := map[string]*workloadResult{}
	for _, w := range workloads {
		wr := h.measure(w, 1, 0, 1)
		res[w.name] = wr
		for _, m := range spec.EndToEnd {
			if got, ok := wr.EndToEnd[m.Name]; !ok || got.N == 0 || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.name, m.Name, got)
			}
		}
	}
	crossCheckObs(res["bottleneck_obs"], res["bottleneck"])
	layers, by, err := h.tracedRuns(workloads, res, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if wr := res[w.name]; wr.Failed > 0 {
			t.Errorf("%s: %v", w.name, wr.Problems)
		}
		for k, v := range by[w.name] {
			layers[k] = v
		}
	}
	if _, ok := findSpan(h.tr.spans, "scenario.run"); !ok {
		t.Error("the traced pass recorded no scenario.run span")
	}
	for _, m := range spec.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s is declared but nothing produces it", m.Name)
		}
		delete(layers, m.Name)
	}
	for k := range layers {
		t.Errorf("per-layer metric %s is produced but not declared", k)
	}
}

// TestDeterminism: the same seed reproduces the simulated output exactly,
// another seed does not. The grid's inputs do not depend on the seed.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := smoke(t, w, 1, false), smoke(t, w, 1, false)
		if bad := check(w, b, smokeScale, &a); len(bad) > 0 {
			t.Errorf("%s: %v", w.name, bad)
		}
		if w.name == "figure2_grid" {
			continue
		}
		if c := smoke(t, w, 2, false); c.Digest == a.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same sim_digest %s", w.name, a.Digest)
		}
		b.Digest = "tampered"
		if bad := check(w, b, smokeScale, &a); len(bad) == 0 {
			t.Errorf("%s: a changed digest passes the determinism check", w.name)
		}
	}
}

// TestEnvelopeCanFail proves the operating-point check is not vacuous:
// metro_hybrid as committed sits inside its band, and the same workload at
// the old zero-blocking point (preset arrivals and prepopulation) is flagged.
func TestEnvelopeCanFail(t *testing.T) {
	w, err := lookupWorkload("metro_hybrid")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.5 // long enough for probes to complete inside the window
	rc := w.gen(1, scale)
	rc.Dir = t.TempDir()
	if rec := execute(rc); rec.Err != "" || len(envelope(w, rec)) > 0 {
		t.Errorf("committed operating point: err %q, envelope %v", rec.Err, envelope(w, rec))
	}
	rc.ArrivalX, rc.PrepopX = 1, 1
	rec := execute(rc)
	if rec.Err != "" {
		t.Fatal(rec.Err)
	}
	if bad := envelope(w, rec); len(bad) == 0 {
		t.Errorf("blocking_prob %.3f at the zero-blocking point was not flagged", rec.Blocking)
	}
}

// TestAgreeIsSymmetric: two sets disagree when either one is off by more
// than the bound, whichever ran first; set-up alone has an absolute floor.
func TestAgreeIsSymmetric(t *testing.T) {
	h := smokeHarness(t)
	set := func(wall, setup float64) *setResult {
		e2e := map[string]metric{}
		for _, d := range h.spec.EndToEnd {
			e2e[d.Name] = metric{Value: 1, N: 5}
		}
		e2e["wall_s"], e2e["setup_s"] = metric{Value: wall, N: 5}, metric{Value: setup, N: 5}
		return &setResult{Workloads: []*workloadResult{{Name: "bottleneck", Attempted: 6, EndToEnd: e2e}}}
	}
	base := set(2, 0.002)
	for _, c := range []struct {
		name  string
		other *setResult
		want  bool
	}{
		{"same", set(2, 0.002), true},
		{"wall 5 % apart", set(2.1, 0.002), true},
		{"wall 40 % slower", set(2.8, 0.002), false},
		{"set-up doubled but under the floor", set(2, 0.004), true},
		{"set-up 30 ms more", set(2, 0.032), false},
	} {
		if got := h.agree(base, c.other); got != c.want {
			t.Errorf("%s, base first: agree = %t, want %t", c.name, got, c.want)
		}
		if got := h.agree(c.other, base); got != c.want {
			t.Errorf("%s, base second: agree = %t, want %t", c.name, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}
