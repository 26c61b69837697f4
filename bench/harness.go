package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. An unresolved metric carries the reason
// in place of a value: a parallel figure taken on one core, or a ratio
// whose other side was not run.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n,omitempty"`
	Base       string  `json:"base,omitempty"`
	Unresolved string  `json:"unresolved,omitempty"`
}

func unresolved(unit, why string) metric { return metric{Unit: unit, Unresolved: why} }

func (m metric) String() string {
	if m.Unresolved != "" {
		return fmt.Sprintf("unresolved %s (%s)", m.Unit, m.Unresolved)
	}
	s := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf("  n=%d", m.N)
	}
	if m.Base != "" {
		s += "  base: " + m.Base
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// benchSpec mirrors BENCHMARK.json; the harness reads the declared metric
// names, directions and bounds from it instead of repeating them.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (benchSpec, error) {
	var bs benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bs, err
	}
	if err := json.Unmarshal(data, &bs); err != nil {
		return bs, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bs, nil
}

// hostRecord goes into every output: a number without it cannot be compared.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func readHost(root string) hostRecord {
	h := hostRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// A checkout without git metadata (the driver's) has no commit to name.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s date=%s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.Date)
}

// harness runs workloads as child processes of this binary, one run per
// process and one process at a time.
type harness struct {
	root  string // checkout root, holds BENCHMARK.json
	exe   string // this binary; empty runs in-process (the smoke test)
	tmp   string // parent of the per-run scratch directories
	scale float64
	spec  benchSpec
	host  hostRecord
	out   io.Writer
	tr    *tracer // parent-side spans of traced passes
	seq   int
}

func newHarness(scale float64, out io.Writer) (*harness, error) {
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root or from bench/: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &harness{root: root, exe: exe, tmp: filepath.Join(root, ".bench_build", "tmp"), scale: scale,
		spec: spec, host: readHost(root), out: out, tr: &tracer{workload: "harness"}}, nil
}

func (h *harness) printf(format string, args ...any) { fmt.Fprintf(h.out, format, args...) }

func (h *harness) outPath(name string) string { return filepath.Join(h.root, "bench", "out", name) }

// scratch makes a fresh directory inside the checkout for one run's files.
func (h *harness) scratch() (string, error) {
	h.seq++
	dir := filepath.Join(h.tmp, fmt.Sprintf("%d-%d", os.Getpid(), h.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// runChild executes one run of rc in a fresh process and waits for it. A
// run that cannot be completed comes back as a record with Err set.
func (h *harness) runChild(rc runConfig, parentSpan int) record {
	fail := func(err error) record {
		return record{Workload: rc.Workload, Seed: rc.Seed, Err: err.Error()}
	}
	dir, err := h.scratch()
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	rc.Dir = dir

	var tr *tracer
	if rc.Trace {
		tr = h.tr
	}
	var rec record
	id := tr.do("child."+rc.Workload, parentSpan, func() {
		if h.exe == "" {
			rec = execute(rc)
		} else {
			rec, err = h.spawn(rc)
		}
	})
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		tr.adopt(id, rec.Spans)
	}
	return rec
}

// spawn re-executes this binary as the child that performs rc.
func (h *harness) spawn(rc runConfig) (rec record, err error) {
	// Ten times the expected wall clock of the slowest workload.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(30*max(h.scale, 1)*float64(time.Second)))
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-child")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	rc.SpawnUnixNs = time.Now().UnixNano()
	in, _ := json.Marshal(rc) // plain struct of numbers and strings
	cmd.Stdin = bytes.NewReader(in)
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("child %s: %w: %s", rc.Workload, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return rec, fmt.Errorf("child %s: bad record: %w", rc.Workload, err)
	}
	return rec, nil
}

// check returns why rec fails its workload's correctness check, if it does.
// ref, when non-nil, is an earlier run of the same workload and seed that
// rec must reproduce exactly.
func check(w workload, rec record, scale float64, ref *record) []string {
	if rec.Err != "" {
		return []string{rec.Err}
	}
	var bad []string
	if rec.Events == 0 {
		bad = append(bad, "no events executed")
	}
	if w.name == "figure2_grid" {
		if rec.Cells != gridCells {
			bad = append(bad, fmt.Sprintf("grid has %d rows, want %d", rec.Cells, gridCells))
		}
		if rec.ColdPuts != int64(rec.Cells) {
			bad = append(bad, fmt.Sprintf("cold run stored %d of %d cells: the cache was not cold", rec.ColdPuts, rec.Cells))
		}
		if !rec.WarmIdentical {
			bad = append(bad, "warm re-run CSV differs from cold")
		}
		if rec.WarmMisses != 0 || rec.WarmHits == 0 {
			bad = append(bad, fmt.Sprintf("warm re-run not cache-served: %d hits, %d misses", rec.WarmHits, rec.WarmMisses))
		}
	} else if scale >= 1 {
		// Below scale 1 the accounting window is too short for the
		// operating point to be meaningful (smoke runs).
		bad = append(bad, envelope(w, rec)...)
	}
	if w.name == "metro_shard2" && rec.Shards != 2 {
		bad = append(bad, fmt.Sprintf("ran with %d shards, want 2", rec.Shards))
	}
	if ref != nil {
		if rec.Events != ref.Events || rec.Digest != ref.Digest || !slices.Equal(rec.ShardExecuted, ref.ShardExecuted) {
			bad = append(bad, fmt.Sprintf("not deterministic: events %d vs %d, digest %.12s vs %.12s",
				rec.Events, ref.Events, rec.Digest, ref.Digest))
		}
	}
	return bad
}

// envelope checks the run's operating point against the workload's bands.
func envelope(w workload, rec record) []string {
	var bad []string
	if !w.util.holds(rec.Util) {
		bad = append(bad, fmt.Sprintf("utilization %.3f outside [%g, %g]", rec.Util, w.util.lo, w.util.hi))
	}
	if !w.blocking.holds(rec.Blocking) {
		bad = append(bad, fmt.Sprintf("blocking_prob %.3f outside [%g, %g]", rec.Blocking, w.blocking.lo, w.blocking.hi))
	}
	return bad
}

// workloadResult collects one workload's runs within one set.
type workloadResult struct {
	Name      string            `json:"name"`
	Seed      uint64            `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Digest    string            `json:"sim_digest"`
	Events    uint64            `json:"events"`
	Shards    int               `json:"shards"`
	Workers   int               `json:"workers"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Runs      []record          `json:"runs"`             // measured, tracing off
	Traced    *record           `json:"traced,omitempty"` // the traced pass
	first     *record
}

// add books one run: checks it, counts it, and keeps it if it is a
// measured one.
func (wr *workloadResult) add(w workload, rec record, scale float64, measured bool) {
	wr.Attempted++
	if bad := check(w, rec, scale, wr.first); len(bad) > 0 {
		wr.Failed++
		wr.Problems = append(wr.Problems, bad...)
		return
	}
	if wr.first == nil {
		wr.first = &rec
		wr.Digest, wr.Events, wr.Shards, wr.Workers = rec.Digest, rec.Events, rec.Shards, rec.Workers
	}
	if measured {
		wr.Runs = append(wr.Runs, rec)
	}
}

func (wr *workloadResult) fail(why string) {
	wr.Failed++
	wr.Problems = append(wr.Problems, why)
}

// summarize fills the end-to-end metrics: the median over the measured runs.
func (wr *workloadResult) summarize() {
	col := func(f func(record) float64) metric {
		v := make([]float64, len(wr.Runs))
		for i, r := range wr.Runs {
			v[i] = f(r)
		}
		return metric{Value: median(v), N: len(v)}
	}
	wr.EndToEnd = map[string]metric{
		"wall_s":            col(func(r record) float64 { return r.WallS }),
		"cpu_s":             col(func(r record) float64 { return r.CPUS }),
		"setup_s":           col(func(r record) float64 { return r.SetupS }),
		"peak_rss_mb":       col(func(r record) float64 { return r.PeakRSSMB }),
		"allocs_per_kevent": col(record.allocsPerKEvent),
	}
}

// crossCheckObs requires bottleneck_obs to reproduce bottleneck's simulated
// statistics exactly: observability must not feed back into the dynamics.
func crossCheckObs(obsRes, plain *workloadResult) {
	if obsRes == nil || plain == nil || obsRes.first == nil || plain.first == nil {
		return
	}
	if obsRes.Digest != plain.Digest {
		obsRes.fail(fmt.Sprintf("bottleneck_obs digest %.12s differs from bottleneck's %.12s", obsRes.Digest, plain.Digest))
	}
}

// ---- per-layer metrics ----

// workloadLayers derives the per-layer metrics that describe one
// workload's traced run: its event figures, spans, and the share estimates
// built from the layer probes.
func workloadLayers(wr *workloadResult, probes map[string]metric) map[string]metric {
	out := map[string]metric{}
	t := wr.Traced
	if t == nil || t.Err != "" || t.WallS == 0 {
		return out
	}
	grid := wr.Name == "figure2_grid"
	evNote := ""
	if grid {
		evNote = "nominal, not counted"
	}
	out["scenario.events"] = metric{Value: float64(t.Events), Unit: "count", Base: evNote}
	out["scenario.ns_per_event"] = metric{Value: t.WallS * 1e9 / float64(t.Events), Unit: "ns", Base: evNote}
	out["scenario.events_per_s"] = metric{Value: float64(t.Events) / t.WallS, Unit: "1/s", Base: evNote}
	if s, ok := findSpan(t.Spans, "scenario.build"); ok {
		out["scenario.build_s"] = metric{Value: s.seconds(), Unit: "s"}
	}
	if s, ok := findSpan(t.Spans, "obs.flush"); ok {
		out["obs.flush_s"] = metric{Value: s.seconds(), Unit: "s"}
	}
	if base := wr.EndToEnd["wall_s"]; base.N > 0 && base.Value > 0 {
		out["trace_overhead"] = metric{Value: t.WallS/base.Value - 1, Unit: "ratio",
			Base: fmt.Sprintf("traced %.4f s / untraced median %.4f s", t.WallS, base.Value)}
	}
	if grid {
		out["experiments.cells_per_s"] = metric{Value: float64(t.Cells) / t.WallS, Unit: "1/s"}
		out["cache.warm_grid_s"] = metric{Value: t.WarmS, Unit: "s"}
		if n := t.WarmHits + t.WarmMisses; n > 0 {
			out["cache.hit_ratio"] = metric{Value: float64(t.WarmHits) / float64(n), Unit: "ratio"}
		}
		return out
	}
	// Share estimates: operations implied by the run's Metrics times the
	// probe's cost per operation, over the run's wall clock. The netsim,
	// trafgen and admission probes include the sim events they schedule,
	// so sim.share_est overlaps them and is left out of the residual.
	ns := func(name string) float64 { return probes[name].Value }
	wall := t.WallS * 1e9
	hold, policy := "sim.hold_ns_d256", "admission.policy_static_ns"
	if t.Ops.DeepHeap {
		hold = "sim.hold_ns_d32k"
	}
	if t.Ops.Adaptive {
		policy = "admission.policy_epoch_ns"
	}
	for _, need := range []string{hold, policy, "netsim.link_pkt_ns", "netsim.fluidbg_add_ns", "trafgen.onoff_pkt_ns", "admission.probe_pkt_ns"} {
		if m, ok := probes[need]; !ok || m.Unresolved != "" {
			return out
		}
	}
	netsim := (t.Ops.LinkPkts*ns("netsim.link_pkt_ns") + t.Ops.FluidAdds*ns("netsim.fluidbg_add_ns")) / wall
	trafgen := t.Ops.DataPkts * ns("trafgen.onoff_pkt_ns") / wall
	adm := (t.Ops.ProbePkts*ns("admission.probe_pkt_ns") + t.Ops.Decisions*ns(policy)) / wall
	est := func(v float64, base string) metric { return metric{Value: v, Unit: "ratio", Base: "estimate: " + base} }
	out["sim.share_est"] = est(float64(t.Events)*ns(hold)/wall, "upper bound, events x "+hold+" (random ranks); contained in the other layers' shares")
	out["netsim.share_est"] = est(netsim, "packet-hops x link_pkt_ns + fluid adds x fluidbg_add_ns")
	out["trafgen.share_est"] = est(trafgen, "data packets x onoff_pkt_ns")
	out["admission.share_est"] = est(adm, "probe packets x probe_pkt_ns + decisions x "+policy)
	out["scenario.unattributed_share"] = est(1-netsim-trafgen-adm, "1 - netsim - trafgen - admission; probes run warm, so cold deep-heap runs leave a large residual")
	return out
}

// ratio returns a's median over b's for one end-to-end metric.
func ratio(a, b *workloadResult, name, unit string) metric {
	if a == nil || b == nil {
		return unresolved(unit, "needs both workloads of the pair")
	}
	ma, mb := a.EndToEnd[name], b.EndToEnd[name]
	if ma.N == 0 || mb.N == 0 || mb.Value == 0 {
		return unresolved(unit, "no measured runs on one side")
	}
	return metric{Value: ma.Value / mb.Value, Unit: unit,
		Base: fmt.Sprintf("%s %s %.4f / %s %.4f", name, a.Name, ma.Value, b.Name, mb.Value)}
}

// crossLayers derives the metrics that compare two workloads, or the grid
// with its run on gridWorkers workers.
func crossLayers(res map[string]*workloadResult, gridParallel *record) map[string]metric {
	out := map[string]metric{}
	parallel := runtime.GOMAXPROCS(0) >= 2
	if !parallel {
		for _, n := range []string{"sim.shard.speedup", "sim.shard.cpu_ratio", "sim.shard.balance", "experiments.parallel_eff"} {
			out[n] = unresolved("ratio", "GOMAXPROCS < 2")
		}
	} else {
		out["sim.shard.speedup"] = ratio(res["metro_serial"], res["metro_shard2"], "wall_s", "ratio")
		out["sim.shard.cpu_ratio"] = ratio(res["metro_serial"], res["metro_shard2"], "cpu_s", "ratio")
		out["sim.shard.balance"] = unresolved("ratio", "needs a metro_shard2 run")
		if sh := res["metro_shard2"]; sh != nil && sh.first != nil && len(sh.first.ShardExecuted) > 0 {
			per := sh.first.ShardExecuted
			out["sim.shard.balance"] = metric{Value: float64(sh.Events) / float64(slices.Max(per)), Unit: "ratio",
				Base: fmt.Sprintf("total / max per-shard events, %d shards", len(per))}
		}
		out["experiments.parallel_eff"] = unresolved("ratio", "needs the grid and its run on more workers")
		if g, p := res["figure2_grid"], gridParallel; g != nil && p != nil && p.Err == "" && p.WallS > 0 {
			if m := g.EndToEnd["wall_s"]; m.N > 0 {
				out["experiments.parallel_eff"] = metric{
					Value: m.Value / (float64(p.Workers) * p.WallS), Unit: "ratio",
					Base: fmt.Sprintf("wall 1 worker %.4f s / (%d x wall %.4f s)", m.Value, p.Workers, p.WallS)}
			}
		}
	}
	oh := ratio(res["bottleneck_obs"], res["bottleneck"], "wall_s", "ratio")
	if oh.Unresolved == "" {
		oh.Value--
	}
	out["obs.enabled_overhead"] = oh
	return out
}

// ---- driver mode: one workload, one JSON line ----

// driverResult is the last line of standard output in driver mode.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// companions names the other workload of a pair: the two sides of the
// ratio a traced run reports, and for bottleneck_obs also the reference its
// simulated statistics must equal.
var companions = map[string]string{
	"metro_serial":   "metro_shard2",
	"metro_shard2":   "metro_serial",
	"bottleneck":     "bottleneck_obs",
	"bottleneck_obs": "bottleneck",
}

// measure runs w untraced, at least runs times and then for as long as one
// more run, taking as long as the slowest so far, ends within seconds of wall
// clock; then it summarizes. Not running past seconds keeps an invocation's
// length, and with it the whole benchmark's, predictable.
func (h *harness) measure(w workload, seed uint64, seconds float64, runs int) *workloadResult {
	wr := &workloadResult{Name: w.name, Seed: seed}
	t0 := time.Now()
	var slowest float64
	for wr.Failed == 0 && (len(wr.Runs) < runs || time.Since(t0).Seconds()+slowest < seconds) {
		t := time.Now()
		wr.add(w, h.runChild(w.gen(seed, h.scale), 0), h.scale, true)
		slowest = max(slowest, time.Since(t).Seconds())
	}
	wr.summarize()
	return wr
}

func (h *harness) driver(w workload, seed uint64, seconds float64, trace bool) int {
	h.printf("%s\n", h.host)
	h.printf("workload %s seed %d scale %g seconds %g trace %t\n", w.name, seed, h.scale, seconds, trace)
	res := map[string]*workloadResult{}
	if trace {
		// One untraced run is the base of trace_overhead and of the ratios.
		res[w.name] = h.measure(w, seed, 0, 1)
	} else {
		res[w.name] = h.measure(w, seed, seconds, 2)
	}
	if name, ok := companions[w.name]; ok && (trace || w.name == "bottleneck_obs") {
		cw, _ := lookupWorkload(name)
		res[name] = h.measure(cw, seed, 0, 1)
	}
	crossCheckObs(res["bottleneck_obs"], res["bottleneck"])

	declared, values := h.spec.EndToEnd, res[w.name].EndToEnd
	if trace {
		var by map[string]map[string]metric
		declared = h.spec.PerLayer
		var err error
		if values, by, err = h.tracedRuns([]workload{w}, res, seed); err != nil {
			res[w.name].fail("layer probes: " + err.Error())
		}
		for k, v := range by[w.name] {
			values[k] = v
		}
		if err := writeJSON(h.outPath("trace.json"), h.tr.spans); err != nil {
			h.printf("writing trace: %v\n", err)
			return 1
		}
	}

	out := driverResult{Metrics: map[string]driverMetric{}}
	for _, each := range workloads {
		wr := res[each.name]
		if wr == nil {
			continue
		}
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		for _, p := range wr.Problems {
			h.printf("FAIL %s: %s\n", wr.Name, p)
		}
		if wr.first != nil {
			h.printf("%-16s events=%d sim_digest=%.16s shards=%d workers=%d util=%.3f blocking=%.3f\n",
				wr.Name, wr.Events, wr.Digest, wr.Shards, wr.Workers, wr.first.Util, wr.first.Blocking)
		}
		h.printf("%-16s wall_s of each run:", wr.Name)
		for _, r := range wr.Runs {
			h.printf(" %.4f", r.WallS)
		}
		h.printf("\n")
	}
	out.Correct = out.Failed == 0
	for _, d := range declared {
		m, ok := values[d.Name]
		if !ok {
			m = unresolved(d.Unit, "not measured in this workload's run")
		}
		m.Unit = d.Unit
		h.printf("%-32s %s\n", d.Name, m)
		v := m.Value
		if m.Unresolved != "" {
			v = -1 // the contract wants a number for every declared metric
		}
		out.Metrics[d.Name] = driverMetric{Value: v, Unit: d.Unit}
	}
	if !out.Correct {
		// The contract: no result line when outputs are wrong.
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		h.printf("%v\n", err)
		return 1
	}
	h.printf("%s\n", line)
	return 0
}

// probeLayers runs the layer probes in a scratch directory of their own.
func (h *harness) probeLayers(parentSpan int) (map[string]metric, error) {
	dir, err := h.scratch()
	if err != nil {
		return map[string]metric{}, err
	}
	defer os.RemoveAll(dir)
	id := h.tr.begin("probes", parentSpan)
	defer h.tr.end(id)
	return runProbes(h.tr, id, dir)
}

// tracedRuns is the traced pass over ws: each workload once with spans on,
// the grid once more on gridWorkers workers, and the layer probes. res holds every
// workload's summarized untraced runs, the base of trace_overhead and of the
// pair ratios. It returns the metrics of the layers and pairs, per workload
// the metrics that describe that workload's traced run, and why the probes
// failed if they did.
func (h *harness) tracedRuns(ws []workload, res map[string]*workloadResult, seed uint64) (layers map[string]metric, by map[string]map[string]metric, err error) {
	root := h.tr.begin("traced_pass", 0)
	defer h.tr.end(root)
	var gridParallel *record
	for _, w := range ws {
		rc := w.gen(seed, h.scale)
		rc.Trace = true
		rec := h.runChild(rc, root)
		wr := res[w.name]
		wr.add(w, rec, h.scale, false)
		wr.Traced = &rec
		if w.name == "figure2_grid" && runtime.GOMAXPROCS(0) >= gridWorkers {
			rc := w.gen(seed, h.scale)
			rc.Workers = gridWorkers
			rec := h.runChild(rc, root)
			gridParallel = &rec
		}
	}
	layers, err = h.probeLayers(root)
	for k, v := range crossLayers(res, gridParallel) {
		layers[k] = v
	}
	by = map[string]map[string]metric{}
	for _, w := range ws {
		by[w.name] = workloadLayers(res[w.name], layers)
	}
	return layers, by, err
}
