package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eac/internal/cache"
	"eac/internal/experiments"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// opCounts are the layer operations a run's Metrics imply, scaled from the
// accounting window to the whole run. They feed the share estimates.
type opCounts struct {
	LinkPkts  float64 `json:"link_pkts"`  // packet-hops served by links, data and probe
	DataPkts  float64 `json:"data_pkts"`  // packets emitted by traffic sources
	ProbePkts float64 `json:"probe_pkts"` // packets emitted by probers
	Decisions float64 `json:"decisions"`  // policy Decide/Judge pairs
	FluidAdds float64 `json:"fluid_adds"` // FluidBackground.Add calls (hybrid)
	DeepHeap  bool    `json:"deep_heap"`  // more than one link: ~10^4 pending events
	Adaptive  bool    `json:"adaptive"`   // epoch-adaptive policy
}

// record is what one run reports back: host-time measurements, the
// simulated statistics used for the correctness check, and spans.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Err      string `json:"err,omitempty"`

	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Mallocs   uint64  `json:"mallocs"`

	Events        uint64   `json:"events"`
	ShardExecuted []uint64 `json:"shard_executed,omitempty"`
	Shards        int      `json:"shards"`
	Workers       int      `json:"workers"`
	Digest        string   `json:"sim_digest"`

	Util       float64  `json:"utilization"`
	Blocking   float64  `json:"blocking_prob"`
	Loss       float64  `json:"data_loss_prob"`
	ProbeShare float64  `json:"probe_share"`
	Decided    int64    `json:"decided"`
	Ops        opCounts `json:"ops"`

	// grid only
	Cells         int     `json:"cells,omitempty"`
	ColdPuts      int64   `json:"cold_puts,omitempty"`
	WarmS         float64 `json:"warm_s,omitempty"`
	WarmHits      int64   `json:"warm_hits,omitempty"`
	WarmMisses    int64   `json:"warm_misses,omitempty"`
	WarmIdentical bool    `json:"warm_identical,omitempty"`

	Spans []span `json:"spans,omitempty"`
}

func (r record) allocsPerKEvent() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(r.Events) * 1000
}

// childMain is the body of the re-executed process: one run, one record.
func childMain(in io.Reader, out io.Writer) error {
	var rc runConfig
	if err := json.NewDecoder(in).Decode(&rc); err != nil {
		return fmt.Errorf("child: reading run config: %w", err)
	}
	return json.NewEncoder(out).Encode(execute(rc))
}

// execute performs one complete run of rc in this process. Failures are
// reported in the record, never as a panic: the parent counts them.
func execute(rc runConfig) (rec record) {
	start := time.Now().UnixNano()
	if rc.SpawnUnixNs != 0 {
		start = rc.SpawnUnixNs
	}
	rec = record{Workload: rc.Workload, Seed: rc.Seed, Shards: 1, Workers: 1}
	defer func() {
		if p := recover(); p != nil {
			rec.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	var tr *tracer
	if rc.Trace {
		tr = &tracer{workload: rc.Workload}
	}
	prepare := prepareScenario
	if rc.Kind == "grid" {
		prepare = prepareGrid
	}
	run, err := prepare(rc, tr, &rec)
	rec.SetupS = sinceStart(start)
	if err == nil {
		err = run()
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.CPUS = cpuSeconds()
	rec.PeakRSSMB = peakRSSMB()
	if tr != nil {
		rec.Spans = tr.spans
	}
	return rec
}

// sinceStart is setup_s: seconds from process start (Unix ns) to now.
func sinceStart(start int64) float64 { return float64(time.Now().UnixNano()-start) / 1e9 }

// timed runs fn, the part of a run that counts as wall_s, between two
// allocation-counter reads.
func timed(rec *record, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	rec.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	rec.Mallocs = after.Mallocs - before.Mallocs
}

// prepareScenario does the set-up of a link or metro run and returns the
// function that performs the run and fills rec.
func prepareScenario(rc runConfig, tr *tracer, rec *record) (func() error, error) {
	cfg, err := scenarioConfig(rc)
	if err != nil {
		return nil, err
	}
	var simulate func() (scenario.Metrics, error)
	if rc.Kind == "metro" && !rc.Hybrid {
		// Serial and sharded metro share one call path, so their ratio is
		// the executor's and nothing else's. RunRecorded builds inside the
		// call; the traced pass times a throw-away NewRunner for build_s.
		if tr != nil {
			tr.do("scenario.build", 0, func() { _, err = scenario.NewRunner(cfg) })
			if err != nil {
				return nil, err
			}
		}
		ws := scenario.NewWorkspace()
		simulate = func() (m scenario.Metrics, err error) {
			var rr scenario.RunRecord
			tr.do("scenario.run", 0, func() { m, rr, err = ws.RunRecorded(cfg) })
			rec.Shards, rec.ShardExecuted = rr.Shards, rr.ShardExecuted
			for _, e := range rr.ShardExecuted {
				rec.Events += e
			}
			return m, err
		}
	} else {
		var r *scenario.Runner
		tr.do("scenario.build", 0, func() { r, err = scenario.NewRunner(cfg) })
		if err != nil {
			return nil, err
		}
		simulate = func() (m scenario.Metrics, err error) {
			tr.do("scenario.run", 0, func() { m = r.Run() })
			tr.do("obs.flush", 0, func() { _, err = r.FlushObs() })
			rec.Events = r.Sim().Executed()
			rec.ShardExecuted = []uint64{rec.Events}
			return m, err
		}
	}
	return func() error {
		var m scenario.Metrics
		var err error
		timed(rec, func() { m, err = simulate() })
		if err != nil {
			return err
		}
		raw, err := json.Marshal(m)
		if err != nil {
			return err
		}
		rec.Digest = digest(raw)
		rec.Util, rec.Blocking, rec.Loss = m.Utilization, m.BlockingProb, m.DataLossProb
		rec.ProbeShare, rec.Decided = m.ProbeShare, m.Decided
		rec.Ops = impliedOps(cfg.WithDefaults(), m)
		return nil
	}, nil
}

// impliedOps reads the layer operation counts off a run's Metrics.
func impliedOps(cfg scenario.Config, m scenario.Metrics) opCounts {
	window := (cfg.Duration - cfg.Drain - cfg.Warmup).Sec()
	if window <= 0 {
		return opCounts{}
	}
	full := cfg.Duration.Sec() / window
	pktBits := float64(cfg.Classes[0].Preset.PktSize * 8)
	hybrid := cfg.Hybrid.Active()

	var dataHops, probeHops float64
	for i, lm := range m.Links {
		pkts := cfg.Links[i].RateBps * window / pktBits
		if !hybrid {
			dataHops += lm.Utilization * pkts
		}
		probeHops += lm.ProbeShare * pkts
	}
	var hops, weight, sent, accepted float64
	for i, cl := range cfg.Classes {
		n := len(cl.Path)
		if n == 0 {
			n = 1
		}
		hops += cl.Weight * float64(n)
		weight += cl.Weight
		sent += float64(m.Classes[i].DataSent)
		accepted += float64(m.Classes[i].Accepted)
	}
	hops /= weight

	ops := opCounts{
		LinkPkts:  full * (dataHops + probeHops),
		ProbePkts: full * probeHops / hops,
		Decisions: full * float64(m.Decided),
		DeepHeap:  len(cfg.Links) > 1,
		Adaptive:  cfg.Policy.Kind != 0,
	}
	if hybrid {
		// One Add per path link when a flow starts and one when it ends.
		ops.FluidAdds = full * accepted * 2 * hops
	} else {
		ops.DataPkts = full * sent
	}
	return ops
}

// prepareGrid opens the cold result cache and looks the experiment up; the
// returned function runs the grid cold, then warm as the correctness check.
func prepareGrid(rc runConfig, tr *tracer, rec *record) (func() error, error) {
	var store *cache.Store
	var err error
	tr.do("cache.open", 0, func() { store, err = cache.Open(filepath.Join(rc.Dir, "cache")) })
	if err != nil {
		return nil, err
	}
	ex, err := experiments.Lookup("figure2")
	if err != nil {
		return nil, err
	}
	opts := experiments.Conformance()
	opts.Sparse = false
	opts.Duration = sim.Seconds(rc.DurationSec)
	opts.Warmup = sim.Seconds(rc.WarmupSec)
	opts.Workers = rc.Workers
	opts.Cache = store
	rec.Workers = rc.Workers

	return func() error {
		var tbl experiments.Table
		var err error
		timed(rec, func() {
			tr.do("experiments.run", 0, func() { tbl, err = ex.Run(opts) })
		})
		if err != nil {
			return err
		}
		cold := store.Stats()
		csv := tbl.CSV()
		rec.Cells, rec.ColdPuts = len(tbl.Rows), cold.Puts
		rec.Digest = digest([]byte(csv))
		rec.Events = uint64(float64(rec.Cells) * rc.DurationSec * gridEventsPerCellSecond)

		// The warm re-run is part of the correctness check, not of wall_s.
		var warm experiments.Table
		t0 := time.Now()
		tr.do("experiments.run.warm", 0, func() { warm, err = ex.Run(opts) })
		rec.WarmS = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		d := store.Stats().Sub(cold)
		rec.WarmHits, rec.WarmMisses = d.Hits, d.Misses+d.Corrupt
		rec.WarmIdentical = warm.CSV() == csv
		return nil
	}, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
