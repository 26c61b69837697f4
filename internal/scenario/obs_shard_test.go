package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
)

// obsShardCfg is shardChainConfig with observability attached.
func obsShardCfg(links, shards int, dir string) Config {
	cfg := shardChainConfig(links)
	cfg.Shards = shards
	cfg.Obs = obs.Config{
		Enabled:         true,
		Dir:             dir,
		Label:           "sh",
		MetricsInterval: sim.Second,
		TraceCapacity:   1 << 14,
	}
	return cfg
}

// TestObsShardedMergedArtifacts is the tentpole's acceptance test: a
// Shards>=2 run with observability produces one merged series CSV, trace
// JSONL, span JSONL, and histogram document under the same names a
// serial run would use, with shard provenance on every row/event.
func TestObsShardedMergedArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := obsShardCfg(4, 2, dir)
	cfg.Obs.PerfettoPath = filepath.Join(dir, "trace-perfetto.json")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// Series: shard column after the timestamp, both shards present,
	// timestamps nondecreasing with ties broken by ascending shard.
	b, err := os.ReadFile(filepath.Join(dir, "sh-s11-series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if !strings.HasPrefix(lines[0], "t_s,shard,link,") {
		t.Fatalf("merged series header = %q", lines[0])
	}
	// 25 simulated seconds sampled once per second per shard, both
	// shards sampling every owned link each tick.
	if len(lines) < 2*25 {
		t.Fatalf("merged series has %d rows, want at least %d", len(lines)-1, 2*25)
	}
	shardsSeen := map[string]bool{}
	prevT, prevShard := -1.0, -1
	for _, line := range lines[1:] {
		f := strings.SplitN(line, ",", 4)
		ts, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("bad timestamp in %q: %v", line, err)
		}
		shard, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bad shard in %q: %v", line, err)
		}
		if ts < prevT || (ts == prevT && shard < prevShard) {
			t.Fatalf("merged series out of (time, shard) order at %q", line)
		}
		if ts > prevT {
			prevT, prevShard = ts, shard
		} else {
			prevShard = shard
		}
		shardsSeen[f[1]] = true
	}
	if !shardsSeen["0"] || !shardsSeen["1"] {
		t.Fatalf("merged series shards seen = %v, want both 0 and 1", shardsSeen)
	}

	// Trace: every event carries a shard field; timestamps merge-ordered.
	tb, err := os.ReadFile(filepath.Join(dir, "sh-s11-trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tl := strings.Split(strings.TrimSpace(string(tb)), "\n")
	if len(tl) < 100 {
		t.Fatalf("merged trace has %d events, want a busy run", len(tl))
	}
	traceShards := map[int]bool{}
	prev := -1.0
	for i, line := range tl {
		var ev struct {
			T     float64 `json:"t"`
			Ev    string  `json:"ev"`
			Shard *int    `json:"shard"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d not JSON: %v", i, err)
		}
		if ev.Shard == nil {
			t.Fatalf("trace line %d missing shard field: %s", i, line)
		}
		if ev.T < prev {
			t.Fatalf("trace line %d out of time order (%v after %v)", i, ev.T, prev)
		}
		prev = ev.T
		traceShards[*ev.Shard] = true
	}
	if !traceShards[0] || !traceShards[1] {
		t.Fatalf("trace shards seen = %v, want both", traceShards)
	}
	// Cross-shard handoffs at domain boundaries are traced.
	if !strings.Contains(string(tb), `"ev":"handoff"`) {
		t.Fatal("merged trace has no handoff events on a chain topology")
	}

	// Spans: shard field present, admission outcomes recorded.
	sb, err := os.ReadFile(filepath.Join(dir, "sh-s11-spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sb), `"shard":`) || !strings.Contains(string(sb), `"accepted":`) {
		t.Fatal("merged spans missing shard or accepted fields")
	}

	// Histogram document: shard count and per-shard executed totals.
	hb, err := os.ReadFile(filepath.Join(dir, "sh-s11-hist.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Schema        string   `json:"schema"`
		Shards        int      `json:"shards"`
		ShardExecuted []uint64 `json:"shard_executed"`
		DelayNs       []struct {
			Class string `json:"class"`
			N     int64  `json:"n"`
		} `json:"delay_ns"`
	}
	if err := json.Unmarshal(hb, &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Shards != 2 || len(hist.ShardExecuted) != 2 {
		t.Fatalf("hist shards = %d, executed = %v; want 2 shards", hist.Shards, hist.ShardExecuted)
	}
	if hist.ShardExecuted[0] == 0 || hist.ShardExecuted[1] == 0 {
		t.Fatalf("per-shard executed counts = %v, want both nonzero", hist.ShardExecuted)
	}
	var delayed int64
	for _, d := range hist.DelayNs {
		delayed += d.N
	}
	if delayed == 0 {
		t.Fatal("merged delay histograms are empty")
	}

	// Perfetto export: wrapped trace-event JSON with per-shard processes.
	pb, err := os.ReadFile(cfg.Obs.PerfettoPath)
	if err != nil {
		t.Fatal(err)
	}
	var ptrace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pb, &ptrace); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	var durEvents int
	for _, ev := range ptrace.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "X" {
			durEvents++
		}
	}
	if !pids[0] || !pids[1] || durEvents == 0 {
		t.Fatalf("perfetto export: pids %v, %d duration events; want both shards with spans", pids, durEvents)
	}
}

// TestObsShardedDeterministic: two fresh sharded runs with observability
// produce byte-identical artifacts — the merge order is fully pinned.
func TestObsShardedDeterministic(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if _, err := Run(obsShardCfg(3, 3, dir)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"sh-s11-series.csv", "sh-s11-trace.jsonl", "sh-s11-spans.jsonl", "sh-s11-hist.json"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("%s is empty", name)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between identical sharded runs", name)
		}
	}
}

// TestObsShardedDisabledByteIdentical extends the PR's core guarantee to
// the sharded path: with no obs config, with a constructed-but-disabled
// merged set, and with full sampling + tracing enabled, the sharded run
// produces identical Metrics.
func TestObsShardedDisabledByteIdentical(t *testing.T) {
	base := shardChainConfig(4)
	base.Shards = 2
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	disabled := base
	disabled.Obs = obs.Config{MetricsInterval: sim.Second, TraceCapacity: 1 << 10}
	if !disabled.Obs.Active() || disabled.Obs.Enabled {
		t.Fatal("test config must construct a disabled merged set")
	}
	m, err := Run(disabled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, ref) {
		t.Fatalf("constructed-but-disabled obs changed sharded metrics:\nbase %+v\nobs  %+v", ref, m)
	}

	enabled := obsShardCfg(4, 2, t.TempDir())
	m, err = Run(enabled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, ref) {
		t.Fatalf("enabled obs changed sharded metrics:\nbase %+v\nobs  %+v", ref, m)
	}
}

// TestRunSeedsObservedRecords pins the RunRecord side channel: per-seed
// shard counts and executed-event totals come back without touching
// Metrics, identically for serial and pooled workers.
func TestRunSeedsObservedRecords(t *testing.T) {
	cfg := shardChainConfig(3)
	cfg.Shards = 2
	seeds := []uint64{7, 8}
	mm, recs, err := RunSeedsObserved(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(seeds) {
		t.Fatalf("records = %d, want %d", len(recs), len(seeds))
	}
	for i, r := range recs {
		if r.Seed != seeds[i] {
			t.Fatalf("record %d seed = %d, want %d (order must match input)", i, r.Seed, seeds[i])
		}
		if r.Shards != 2 || len(r.ShardExecuted) != 2 {
			t.Fatalf("record %d: shards=%d executed=%v, want 2 shards", i, r.Shards, r.ShardExecuted)
		}
		if r.ShardExecuted[0] == 0 || r.ShardExecuted[1] == 0 {
			t.Fatalf("record %d executed = %v, want nonzero per shard", i, r.ShardExecuted)
		}
		for k, q := range r.Queue {
			if q.Executed != r.ShardExecuted[k] || q.StreamSchedules == 0 || q.StreamSchedules > q.HeapSchedules ||
				q.StreamHighWater == 0 || q.StreamHighWater > q.HeapHighWater {
				t.Fatalf("record %d shard %d queue ledger = %+v, executed %d", i, k, q, r.ShardExecuted[k])
			}
		}
		if len(r.Queue) != 2 {
			t.Fatalf("record %d: %d queue ledgers, want one per shard", i, len(r.Queue))
		}
	}
	mm2, recs2, err := RunSeedsObserved(cfg, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm, mm2) || !reflect.DeepEqual(recs, recs2) {
		t.Fatal("pooled RunSeedsObserved diverged from the serial-worker path")
	}

	// Serial runs report a single executed total and Shards <= 1.
	serial := shardChainConfig(3)
	_, srecs, err := RunSeedsObserved(serial, []uint64{7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(srecs) != 1 || srecs[0].Shards > 1 || len(srecs[0].ShardExecuted) != 1 || srecs[0].ShardExecuted[0] == 0 ||
		len(srecs[0].Queue) != 1 || srecs[0].Queue[0].Executed != srecs[0].ShardExecuted[0] {
		t.Fatalf("serial record = %+v", srecs[0])
	}
}

// TestRunRecordAddTo: what Flush wrote reaches the manifest through the
// record — the artifact list is the directory's contents, and the
// per-seed sections land under "s<seed>".
func TestRunRecordAddTo(t *testing.T) {
	dir := t.TempDir()
	seeds := []uint64{7, 8}
	_, recs, err := RunSeedsObserved(obsShardCfg(3, 2, dir), seeds, 2)
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
		if len(man.ShardExecuted[key]) != 2 || len(man.Queue[key]) != 2 {
			t.Errorf("%s: shard_executed %v, queue %v; want one entry per shard", key, man.ShardExecuted[key], man.Queue[key])
		}
	}

	// A serial run has a queue ledger and no shards to list; a cached one
	// neither, and no artifacts.
	var serial obs.Manifest
	RunRecord{Seed: 1, Shards: 1, ShardExecuted: []uint64{9}, Queue: []sim.Counters{{Executed: 9}}}.AddTo(&serial)
	RunRecord{Seed: 2, Shards: 1, Cached: true}.AddTo(&serial)
	if serial.ShardExecuted != nil || len(serial.Queue) != 1 || serial.Queue["s1"][0].Executed != 9 || serial.Artifacts != nil {
		t.Fatalf("serial manifest = %+v", serial)
	}
}
