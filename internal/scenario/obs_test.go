package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// obsChainCfg is shardChainConfig with observability attached.
func obsChainCfg(links int, dir string) Config {
	cfg := shardChainConfig(links)
	cfg.Obs = obs.Config{
		Enabled:         true,
		Dir:             dir,
		Label:           "sh",
		MetricsInterval: sim.Second,
		TraceCapacity:   1 << 14,
	}
	return cfg
}

// shortCfg is quickCfg scaled down further for observability tests.
func shortCfg() Config {
	cfg := quickCfg()
	cfg.Duration = 120 * sim.Second
	cfg.Warmup = 20 * sim.Second
	return cfg
}

func TestObsArtifactsWritten(t *testing.T) {
	dir := t.TempDir()
	cfg := shortCfg()
	cfg.Obs = obs.Config{
		Enabled:         true,
		Dir:             dir,
		Label:           "test",
		MetricsInterval: sim.Second,
		// Large enough that admission decisions survive among the far more
		// frequent per-packet events.
		TraceCapacity: 1 << 16,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	series := filepath.Join(dir, "test-s1-series.csv")
	trace := filepath.Join(dir, "test-s1-trace.jsonl")
	b, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	// One header plus one sample per simulated second (sampling starts at
	// t=interval and continues through t=Duration).
	if want := 1 + 120; len(lines) != want {
		t.Fatalf("series has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[1], "1.000000,L0,") {
		t.Fatalf("first sample = %q", lines[1])
	}
	tb, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	tl := strings.Split(strings.TrimSpace(string(tb)), "\n")
	if len(tl) < 100 {
		t.Fatalf("trace has %d events, want a busy run", len(tl))
	}
	for _, want := range []string{`"ev":"enqueue"`, `"ev":"dequeue"`, `"ev":"admit"`} {
		if !strings.Contains(string(tb), want) {
			t.Fatalf("trace missing %s events", want)
		}
	}
}

// TestTraceEpochEvent pins the epoch event's JSONL form: an epoch-adaptive
// run with tracing writes epoch events carrying exactly these keys.
func TestTraceEpochEvent(t *testing.T) {
	cfg := shortCfg()
	cfg.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, Epoch: 10}
	cfg.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), TraceCapacity: 1 << 16}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cfg.Obs.TraceFile(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"t": true, "ev": true, "epoch": true, "eps": true, "reject_rate": true, "loss_rate": true}
	epochs := 0
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if !strings.Contains(line, `"ev":"epoch"`) {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for k := range ev {
			got[k] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch event %s: keys %v, want %v", line, got, want)
		}
		epochs++
	}
	if epochs == 0 {
		t.Fatal("an epoch-adaptive run traced no epoch event")
	}
}

// TestObsDisabledByteIdentical is the obs layer's core guarantee: a run
// with no observability config and a run with sampling and tracing enabled
// produce identical Metrics — the telemetry layer observes without
// perturbing the simulation.
//
// The chain row adds what one link cannot show. Reading a link makes it catch
// up, and a link that catches up books the packets it starts at their sinks:
// a sampler that reads three queueing links every 3 ms changes the order in
// which they book. Nothing a sink accumulates may depend on that order — the
// delay mean, once a running float mean, differed in its last bits here.
func TestObsDisabledByteIdentical(t *testing.T) {
	chain := shardChainConfig(3)
	chain.Duration, chain.Warmup, chain.PrepopulateUtil = 12*sim.Second, 2*sim.Second, 0.95
	for _, row := range []struct {
		name     string
		cfg      Config
		interval sim.Time
	}{{"link", shortCfg(), sim.Second}, {"chain3", chain, 3 * sim.Millisecond}} {
		t.Run(row.name, func(t *testing.T) {
			base, err := Run(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base.MeanDelaySec == 0 {
				t.Fatal("no delay was measured")
			}

			// Enabled sampling and tracing: the collector's events only read
			// simulator state, so the metrics must not move.
			cfg := row.cfg
			cfg.Obs = obs.Config{
				Enabled: true, Dir: t.TempDir(),
				MetricsInterval: row.interval, TraceCapacity: 1 << 10,
			}
			enabled, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, enabled) {
				t.Fatalf("enabled collector changed metrics:\nbase %+v\nobs  %+v", base, enabled)
			}
		})
	}
}

// TestMeanDelayMatchesTrace recomputes MeanDelaySec of a 3-link chain from
// the run's event trace, which knows nothing of the sinks: a data packet was
// sent when its first record says, and arrived one transmission and one
// propagation delay after its last dequeue — provided that is its last record
// (no drop after it) and the arrival lies inside the run; had the packet
// another link ahead, that link's enqueue or drop at the same instant would
// be the later record. Sum of nanoseconds over count must equal the metric
// to the bit: the sinks are told arrival times by the links, ahead of the
// clock, and this is the check that they are told the right ones, for the
// right packets, up to the horizon.
func TestMeanDelayMatchesTrace(t *testing.T) {
	cfg := shardChainConfig(3)
	cfg.Duration, cfg.Warmup, cfg.Drain = 6*sim.Second, sim.Second, 10*sim.Millisecond // < the 20 ms delay
	cfg.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), TraceCapacity: 1 << 19}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Run()
	if _, err := r.FlushObs(); err != nil {
		t.Fatal(err)
	}
	if n := r.obs.TraceDropped(); n != 0 {
		t.Fatalf("the trace ring dropped %d records: raise TraceCapacity", n)
	}
	f, err := os.Open(cfg.Obs.TraceFile(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type pkt struct {
		sent, lastAt sim.Time
		lastDeq      bool
		size         int64
		link         string
	}
	type key struct {
		flow int32
		seq  int64
	}
	pkts := map[key]*pkt{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var ev struct {
			T    float64
			Ev   string
			Link string
			Flow int32
			Kind string
			Size int64
			Seq  int64
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != "data" || ev.Ev == "mark" {
			continue
		}
		at := sim.Time(math.Round(ev.T * 1e9))
		p := pkts[key{ev.Flow, ev.Seq}]
		if p == nil {
			p = &pkt{sent: at}
			pkts[key{ev.Flow, ev.Seq}] = p
		}
		p.lastAt, p.lastDeq, p.size, p.link = at, ev.Ev == "dequeue", ev.Size, ev.Link
	}
	c := r.cfg
	var sum, n, late int64
	for _, p := range pkts {
		var li int
		fmt.Sscanf(p.link, "L%d", &li)
		ls := c.Links[li]
		at := p.lastAt + sim.Time(float64(p.size*8)*(float64(sim.Second)/ls.RateBps)) + ls.Delay
		switch {
		case !p.lastDeq || p.sent < c.Warmup || p.sent > c.Duration-c.Drain:
		case at > c.Duration:
			late++
		default:
			sum += int64(at - p.sent)
			n++
		}
	}
	if n == 0 || late == 0 {
		t.Fatalf("vacuous: %d window packets arrived, %d were due past the horizon", n, late)
	}
	if want := float64(sum) / (float64(n) * 1e9); m.MeanDelaySec != want {
		t.Fatalf("MeanDelaySec = %v, the trace says %d ns / %d packets = %v", m.MeanDelaySec, sum, n, want)
	}
}

func TestObsSamplesCarrySimState(t *testing.T) {
	cfg := shortCfg()
	cfg.Obs = obs.Config{Enabled: true, MetricsInterval: sim.Second, TraceCapacity: 1 << 10}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run() // nothing is flushed: the collector is read in place
	c := r.obs
	sams := c.Samples()
	if len(sams) != 120 {
		t.Fatalf("samples = %d, want 120", len(sams))
	}
	var sawFlows, sawUtil, sawDepth bool
	for _, s := range sams {
		sawFlows = sawFlows || s.ActiveFlows > 0
		sawUtil = sawUtil || s.Util > 0
		sawDepth = sawDepth || s.Depth > 0
	}
	if !sawFlows || !sawUtil {
		t.Fatalf("samples never saw active flows (%v) or utilization (%v)", sawFlows, sawUtil)
	}
	_ = sawDepth // depth may legitimately stay 0 on an underloaded link
	d := c.DecisionCounts()
	if d.Admitted == 0 {
		t.Fatal("no admission decisions recorded")
	}
}

// TestLossExcludesInFlightPackets pins the window accounting fix: loss
// counts actual router drops, not the sent-received difference. With an
// uncongested link (no drops possible) and a Drain shorter than the
// 20 ms propagation delay, packets emitted near the window's end are
// still in flight when the run stops; the old accounting booked every
// one of them as lost.
func TestLossExcludesInFlightPackets(t *testing.T) {
	m, err := Run(inFlightCfg())
	if err != nil {
		t.Fatal(err)
	}
	sent := m.Classes[0].DataSent
	if sent == 0 {
		t.Fatal("no window traffic")
	}
	if m.Classes[0].DataLost != 0 || m.DataLossProb != 0 {
		t.Fatalf("uncongested link reported loss: lost=%d p=%v (in-flight packets booked as lost?)",
			m.Classes[0].DataLost, m.DataLossProb)
	}
	// Pin the deterministic window count so accounting regressions (window
	// boundary drift, double counting) surface as an exact diff.
	if want := int64(52839); sent != want {
		t.Fatalf("window DataSent = %d, want %d", sent, want)
	}
}

// inFlightCfg is an uncongested link whose Drain is shorter than its
// propagation delay: window packets are still in flight when the run ends.
func inFlightCfg() Config {
	return Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		InterArrival: 3.5, // ~11% offered load: the queue stays empty
		LifetimeSec:  30,
		Duration:     60 * sim.Second,
		Warmup:       5 * sim.Second,
		Drain:        sim.Millisecond, // < 20 ms link delay: in-flight tail
		Seed:         1,
		// Admit everything: only queueing could drop.
		Policy: admission.PolicyConfig{Kind: admission.PolicyAlwaysAdmit},
	}
}

// pipeOnly hides a sink's Record method: every packet takes the link's pipe
// and a delivery event to Receive.
type pipeOnly struct{ netsim.Receiver }

// TestRecorderStopsAtHorizon: a link tells the sink a data packet's arrival
// time when its transmission starts, up to a propagation delay early. One
// due after Duration must not be counted — the delivery event it replaces
// would never have run — and must not leak from the pool either. The same
// run with the sink's Record hidden, every packet going through the pipe, is
// the reference: same Metrics, same delay sum, count and histogram.
func TestRecorderStopsAtHorizon(t *testing.T) {
	run := func(pipe bool) (Metrics, *Runner) {
		r, err := NewRunner(inFlightCfg())
		if err != nil {
			t.Fatal(err)
		}
		if tm := r.doms[0].tmpl[0]; pipe {
			tm[len(tm)-1] = pipeOnly{tm[len(tm)-1]}
		}
		return r.Run(), r
	}
	mr, rr := run(false)
	mp, rp := run(true)
	dr, dp := rr.doms[0], rp.doms[0]
	if !reflect.DeepEqual(mr, mp) || dr.delayN != dp.delayN || dr.delayNs != dp.delayNs || dr.delayHist != dp.delayHist {
		t.Fatalf("recording sink and pipe disagree:\nrecorded %+v (%d ns / %d)\npiped    %+v (%d ns / %d)",
			mr, dr.delayNs, dr.delayN, mp, dp.delayNs, dp.delayN)
	}
	if sent := mr.Classes[0].DataSent; dr.delayN == 0 || dr.delayN >= sent {
		t.Fatalf("vacuous: %d of %d window packets arrived, want some but not all", dr.delayN, sent)
	}
	if rr.Sim().Executed() >= rp.Sim().Executed()*2/3 {
		t.Fatalf("recording run executed %d events, piped %d: nothing was recorded?", rr.Sim().Executed(), rp.Sim().Executed())
	}
	// Every packet is back in the pool but those still queued at the link:
	// the one in service and those on the wire were pooled when recorded.
	if held := rr.links[0].QueueLen(rr.cfg.Duration); int(dr.pool.Allocated) != dr.pool.FreeLen()+held {
		t.Fatalf("leak: %d packets allocated, %d free, %d queued", dr.pool.Allocated, dr.pool.FreeLen(), held)
	}
}

// TestFlowDataSeqUnbroken is the law of a flow's data sequence numbers: the
// packets a flow emits carry 0, 1, 2, … with no gap or repeat. The counter
// lives in the flow's table slot, which the table's compaction moves (domain
// freeFlow) while the flow emits; a compaction that dropped or swapped a
// slot's counter breaks the law. Short probes and lives, most flows rejected
// at once, make the table compact many times in 30 simulated seconds; every
// data packet is traced once on arrival at the one link, enqueued or dropped.
func TestFlowDataSeqUnbroken(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration, cfg.Warmup = 90*sim.Second, 5*sim.Second
	cfg.InterArrival, cfg.LifetimeSec = 0.1, 1
	cfg.AC.ProbeDur, cfg.AC.StageDur = sim.Second, 250*sim.Millisecond
	cfg.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), TraceCapacity: 1 << 20}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if _, err := r.FlushObs(); err != nil {
		t.Fatal(err)
	}
	if n := r.obs.TraceDropped(); n != 0 {
		t.Fatalf("the trace ring dropped %d records: raise TraceCapacity", n)
	}
	// Each compaction advances flowBase by at most the table's length, which
	// never exceeds its capacity.
	if d := r.doms[0]; d.flowBase < 3*cap(d.flows) {
		t.Fatalf("test setup: flowBase %d, table capacity %d: fewer than 3 compactions", d.flowBase, cap(d.flows))
	}
	f, err := os.Open(cfg.Obs.TraceFile(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	next := map[int32]int64{} // each flow's next expected sequence number
	pkts := 0
	dec := json.NewDecoder(f)
	for dec.More() {
		var ev struct {
			Ev   string
			Flow int32
			Kind string
			Seq  int64
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != "data" || (ev.Ev != "enqueue" && ev.Ev != "drop") {
			continue
		}
		if ev.Seq != next[ev.Flow] {
			t.Fatalf("flow %d emitted data seq %d after %d packets", ev.Flow, ev.Seq, next[ev.Flow])
		}
		next[ev.Flow]++
		pkts++
	}
	if len(next) < 50 || pkts < 10000 {
		t.Fatalf("test setup: %d data packets of %d flows traced, want a busy run", pkts, len(next))
	}
	t.Logf("%d data packets of %d flows, flowBase %d", pkts, len(next), r.doms[0].flowBase)
}

// TestRunSeedsRejectsSharedTracePath: Obs.TracePath and Obs.PerfettoPath
// name one file, so a two-seed run that sets either fails before any seed
// runs, naming the field, instead of letting seed 2 overwrite seed 1.
// One seed may set them.
func TestRunSeedsRejectsSharedTracePath(t *testing.T) {
	for _, field := range []string{"Obs.TracePath", "Obs.PerfettoPath"} {
		dir := t.TempDir()
		cfg := obsChainCfg(3, dir)
		if field == "Obs.TracePath" {
			cfg.Obs.TracePath = filepath.Join(dir, "t.jsonl")
		} else {
			cfg.Obs.PerfettoPath = filepath.Join(dir, "p.json")
		}
		_, _, err := RunSeedsObserved(cfg, []uint64{1, 2}, 1)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("two seeds sharing %s: err = %v, want one naming it", field, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("rejected run wrote %d files", len(ents))
		}
	}
	dir := t.TempDir()
	cfg := obsChainCfg(3, dir)
	cfg.Obs.TracePath = filepath.Join(dir, "t.jsonl")
	_, recs, err := RunSeedsObserved(cfg, []uint64{1}, 1)
	if err != nil || !slices.Contains(recs[0].Artifacts, cfg.Obs.TracePath) {
		t.Fatalf("one seed with Obs.TracePath: err = %v, records %+v", err, recs)
	}
}

// TestRunRecordAddTo: what Flush wrote reaches the manifest through the
// record — the artifact list is the directory's contents, and the
// per-seed sections land under "s<seed>".
func TestRunRecordAddTo(t *testing.T) {
	dir := t.TempDir()
	seeds := []uint64{7, 8}
	_, recs, err := RunSeedsObserved(obsChainCfg(3, dir), seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	for _, r := range recs {
		r.AddTo(&man)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range ents {
		onDisk[filepath.Join(dir, e.Name())] = true
	}
	if len(man.Artifacts) != 8 || len(onDisk) != 8 {
		t.Fatalf("manifest lists %d artifacts, directory holds %d; want series, trace, spans, hist x 2 seeds", len(man.Artifacts), len(onDisk))
	}
	for _, p := range man.Artifacts {
		if !onDisk[p] {
			t.Errorf("manifest lists %s, which Flush did not write", p)
		}
	}
	for _, key := range []string{"s7", "s8"} {
		if len(man.Queue[key]) != 1 {
			t.Errorf("%s: queue %v, want one ledger", key, man.Queue[key])
		}
	}

	// A record files its ledger under its seed; a cached run's record has
	// neither a ledger nor artifacts to file.
	var man2 obs.Manifest
	RunRecord{Seed: 1, Shards: 1, Queue: []sim.Counters{{Executed: 9}}}.AddTo(&man2)
	RunRecord{Seed: 2, Shards: 1}.AddTo(&man2)
	if len(man2.Queue) != 1 || man2.Queue["s1"][0].Executed != 9 || man2.Artifacts != nil {
		t.Fatalf("manifest = %+v", man2)
	}
}
