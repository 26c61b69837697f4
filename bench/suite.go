package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// setResult is one full set of runs: every selected workload measured
// measuredPasses times, then traced once.
type setResult struct {
	Host      hostRecord        `json:"host"`
	Seed      uint64            `json:"seed"`
	Scale     float64           `json:"scale"`
	Repeats   int               `json:"repeats"`
	Workloads []*workloadResult `json:"workloads"`
	Layers    map[string]metric `json:"per_layer"`
}

func (sr *setResult) failed() int {
	n := 0
	for _, wr := range sr.Workloads {
		n += wr.Failed
	}
	return n
}

// measuredPasses is how many passes of a set count: the noise policy is one
// warm-up pass, five measured passes, median.
const measuredPasses = 5

// runSet runs the workloads round-robin, one run of each per pass, so slow
// drift of the host spreads evenly over them: one warm-up pass,
// measuredPasses passes with tracing off, then one traced pass with the
// probes.
func (h *harness) runSet(ws []workload, seed uint64) *setResult {
	sr := &setResult{Host: h.host, Seed: seed, Scale: h.scale, Repeats: measuredPasses}
	res := map[string]*workloadResult{}
	var run []workload
	for _, w := range ws {
		wr := &workloadResult{Name: w.name, Seed: seed}
		sr.Workloads = append(sr.Workloads, wr)
		if runtime.GOMAXPROCS(0) < w.minProcs {
			h.printf("%s: unresolved, GOMAXPROCS < %d\n", w.name, w.minProcs)
			continue
		}
		res[w.name] = wr
		run = append(run, w)
	}
	for pass := 0; pass <= measuredPasses; pass++ {
		for _, w := range run {
			res[w.name].add(w, h.runChild(w.gen(seed, h.scale), 0), h.scale, pass > 0)
		}
		h.printf("pass %d/%d done\n", pass, measuredPasses)
	}
	for _, w := range run {
		res[w.name].summarize()
	}
	crossCheckObs(res["bottleneck_obs"], res["bottleneck"])

	layers, by, err := h.tracedRuns(run, res, seed)
	if err != nil {
		sr.Workloads[0].fail("layer probes: " + err.Error())
	}
	sr.Layers = layers
	for name, m := range by {
		for k, v := range m {
			sr.Layers[k+"."+name] = v
		}
	}
	return sr
}

func (h *harness) printSet(sr *setResult) {
	h.printf("\n== end-to-end: median of the measured runs, tracing off (seed %d, scale %g) ==\n", sr.Seed, sr.Scale)
	for _, wr := range sr.Workloads {
		if wr.Attempted == 0 {
			for _, d := range h.spec.EndToEnd {
				h.printf("%-40s %s\n", wr.Name+"."+d.Name, unresolved(d.Unit, "GOMAXPROCS < 2"))
			}
			continue
		}
		for _, d := range h.spec.EndToEnd {
			m := wr.EndToEnd[d.Name]
			m.Unit = d.Unit
			h.printf("%-40s %s\n", wr.Name+"."+d.Name, m)
		}
		h.printf("%-40s %d/%d failed/attempted\n", wr.Name+".fail_share", wr.Failed, wr.Attempted)
		h.printf("%-40s events=%d sim_digest=%.16s shards=%d workers=%d\n", wr.Name, wr.Events, wr.Digest, wr.Shards, wr.Workers)
		for _, p := range wr.Problems {
			h.printf("FAIL %s: %s\n", wr.Name, p)
		}
	}
	h.printf("\n== per-layer: traced pass and layer probes ==\n")
	names := make([]string, 0, len(sr.Layers))
	for k := range sr.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.printf("%-40s %s\n", k, sr.Layers[k])
	}
}

// setupFloorS is the absolute change in setup_s that -agree always tolerates.
const setupFloorS = 0.020

// agree compares two sets of the same code: for every workload and
// end-to-end metric the two medians may not differ, in either direction, by
// more than the metric's bound of the smaller one, and the simulated output
// must be identical.
func (h *harness) agree(a, b *setResult) bool {
	ok := true
	h.printf("\n== agreement of two sets ==\n")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Attempted == 0 {
			continue
		}
		if wa.Events != wb.Events || wa.Digest != wb.Digest {
			h.printf("FAIL %s: simulated output differs between sets (events %d vs %d)\n", wa.Name, wa.Events, wb.Events)
			ok = false
		}
		for _, d := range h.spec.EndToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma.N == 0 || mb.N == 0 || ma.Value <= 0 || mb.Value <= 0 {
				h.printf("FAIL %s.%s: no measurement\n", wa.Name, d.Name)
				ok = false
				continue
			}
			gap := math.Abs(mb.Value - ma.Value)
			diff := gap / min(ma.Value, mb.Value)
			verdict := "pass"
			// Set-up is milliseconds here; below setupFloorS of absolute
			// change a relative bound would only measure exec jitter.
			if diff > d.Bound && !(d.Name == "setup_s" && gap <= setupFloorS) {
				verdict, ok = "FAIL", false
			}
			h.printf("%-40s %.6g vs %.6g %s  differ by %.2f%%  bound %.0f%%  %s\n",
				wa.Name+"."+d.Name, ma.Value, mb.Value, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

// suite is the default mode: sets full sets over the selected workloads.
func (h *harness) suite(ws []workload, seed uint64, sets int, agree bool) int {
	h.printf("%s\n", h.host)
	var results []*setResult
	failed := 0
	for i := 0; i < sets; i++ {
		if sets > 1 {
			h.printf("\n#### set %d of %d ####\n", i+1, sets)
		}
		sr := h.runSet(ws, seed)
		h.printSet(sr)
		results = append(results, sr)
		failed += sr.failed()
	}
	exit := 0
	if failed > 0 {
		h.printf("\n%d run(s) failed their correctness check\n", failed)
		exit = 1
	}
	if agree {
		if sets != 2 {
			h.printf("-agree needs -sets 2\n")
			exit = 1
		} else if !h.agree(results[0], results[1]) {
			exit = 1
		}
	}
	for _, f := range []struct {
		name string
		v    any
	}{{"result.json", results}, {"trace.json", h.tr.spans}} {
		if err := writeJSON(h.outPath(f.name), f.v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}
	h.printf("\nwrote %s and %s\n", h.outPath("result.json"), h.outPath("trace.json"))
	return exit
}
