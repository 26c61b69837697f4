package obs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eac/internal/cache"
	"eac/internal/sim"
)

func enabledCfg(dir string) Config {
	return Config{
		Enabled:         true,
		Dir:             dir,
		Label:           "t",
		MetricsInterval: sim.Second,
		TraceCapacity:   8,
	}
}

// ReadManifest loads a manifest written by Write.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(b, &m)
	return m, err
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Sampling() || c.Tracing() {
		t.Fatal("nil collector reports activity")
	}
	if c.Interval() != 0 || c.TraceLen() != 0 || c.TraceDropped() != 0 {
		t.Fatal("nil collector reports state")
	}
	c.AddSample(Sample{})
	c.Decision(0, 0, 0, true, 1, 0.5)
	if got := c.DecisionCounts(); got != (Decisions{}) {
		t.Fatalf("nil collector counted decisions: %+v", got)
	}
	if c.Samples() != nil {
		t.Fatal("nil collector has samples")
	}
	if tap := c.RegisterLink("L0"); tap != nil {
		t.Fatal("nil collector handed out a tap")
	}
	var tap *LinkTap
	tap.Enqueue(0, 0, 0, 100, 0, 1) // must not panic
}

func TestZeroConfigConstructsNothing(t *testing.T) {
	if New(Config{}, 1) != nil {
		t.Fatal("zero config constructed a collector")
	}
	if New(enabledCfg("x"), 1) == nil {
		t.Fatal("enabled config constructed no collector")
	}
}

// TestDisabledCollectorIsInert: Enabled is the only switch. A config that
// sets everything else constructs no collector, so its run sees the nil
// value's no-ops and flushes nothing.
func TestDisabledCollectorIsInert(t *testing.T) {
	cfg := enabledCfg(t.TempDir())
	cfg.Enabled = false
	if New(cfg, 1) != nil {
		t.Fatal("a disabled config constructed a collector")
	}
	paths, err := New(cfg, 1).Flush()
	if err != nil || len(paths) != 0 {
		t.Fatalf("disabled Flush wrote %v (err %v)", paths, err)
	}
}

func TestRingWrapsAndCountsDropped(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	tap := c.RegisterLink("L0")
	for i := 0; i < 10; i++ {
		tap.Enqueue(sim.Time(i)*sim.Second, i, 0, 100, int64(i), i)
	}
	if c.TraceLen() != 4 {
		t.Fatalf("TraceLen = %d, want 4", c.TraceLen())
	}
	if c.TraceDropped() != 6 {
		t.Fatalf("TraceDropped = %d, want 6", c.TraceDropped())
	}
	// Oldest-first order after wrapping: flows 6,7,8,9 survive.
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace lines = %d, want 4", len(lines))
	}
	for i, line := range lines {
		var ev struct {
			T    float64 `json:"t"`
			Ev   string  `json:"ev"`
			Flow int     `json:"flow"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if want := 6 + i; ev.Flow != want {
			t.Fatalf("line %d flow = %d, want %d", i, ev.Flow, want)
		}
		if ev.Ev != "enqueue" || ev.Kind != "data" {
			t.Fatalf("line %d = %+v", i, ev)
		}
	}
}

func TestTraceDecisionEvents(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 8}, 1)
	c.Decision(2*sim.Second, 7, 1, true, 2, 0.005)
	c.Decision(3*sim.Second, 8, 0, false, 1, 0.25)
	// A class index past 255 survives the ring, as an arrival's does.
	c.Decision(4*sim.Second, 9, 300, true, 1, 0)
	c.Decision(5*sim.Second, 10, 300, false, 3, 0.5)
	if got := c.DecisionCounts(); got.Admitted != 2 || got.Rejected != 2 {
		t.Fatalf("DecisionCounts = %+v", got)
	}
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := []decisionEvent{
		{T: 2, Ev: "admit", Flow: 7, Class: 1, Attempt: 2, Frac: float64(float32(0.005))},
		{T: 3, Ev: "reject", Flow: 8, Class: 0, Attempt: 1, Frac: 0.25},
		{T: 4, Ev: "admit", Flow: 9, Class: 300, Attempt: 1, Frac: 0},
		{T: 5, Ev: "reject", Flow: 10, Class: 300, Attempt: 3, Frac: 0.5},
	}
	if len(lines) != len(want) {
		t.Fatalf("trace lines = %d, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var ev decisionEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	c := New(enabledCfg(t.TempDir()), 1)
	c.RegisterLink("L0")
	c.AddSample(Sample{
		T: 1, Link: 0, Depth: 3, Busy: true, ActiveFlows: 12, Util: 0.5,
		VQBacklog: 100, Arrived: [2]int64{10, 5}, Dropped: [2]int64{1, 2},
		FluidBg: 2.5e6, FluidMark: 0.125,
	})
	var b strings.Builder
	if err := c.WriteSeries(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("series lines = %d, want header + 1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_s,link,depth,busy,") {
		t.Fatalf("header = %q", lines[0])
	}
	want := "1.000000,L0,3,1,12,0.500000,100,10,1,0,0,5,2,0,0,2500000,0.125000"
	if lines[1] != want {
		t.Fatalf("row = %q, want %q", lines[1], want)
	}
}

func TestFlushWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := enabledCfg(dir)
	c := New(cfg, 42)
	tap := c.RegisterLink("L0")
	tap.Enqueue(0, 0, 0, 100, 0, 1)
	c.AddSample(Sample{T: 1, Link: 0})
	c.Decision(sim.Second, 0, 0, true, 1, 0) // gives the span artifact content
	paths, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "t-s42-series.csv"),
		filepath.Join(dir, "t-s42-trace.jsonl"),
		filepath.Join(dir, "t-s42-spans.jsonl"),
		filepath.Join(dir, "t-s42-hist.json"),
	}
	if len(paths) != len(want) {
		t.Fatalf("Flush paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Flush paths[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
	for _, p := range paths {
		if b, err := os.ReadFile(p); err != nil || len(b) == 0 {
			t.Fatalf("artifact %s: err %v, %d bytes", p, err, len(b))
		}
	}
}

func TestArtifactPathOverrides(t *testing.T) {
	cfg := Config{Enabled: true, Dir: "d", Label: "x", MetricsInterval: sim.Second,
		TraceCapacity: 4, TracePath: "custom.jsonl"}
	if series := cfg.SeriesPath(7); series != filepath.Join("d", "x-s7-series.csv") {
		t.Fatalf("series = %q", series)
	}
	if trace := cfg.TraceFile(7); trace != "custom.jsonl" {
		t.Fatalf("trace = %q", trace)
	}
	cfg.MetricsInterval, cfg.TraceCapacity = 0, 0
	if s, tr := cfg.SeriesPath(7), cfg.TraceFile(7); s != "" || tr != "" {
		t.Fatalf("paths of artifacts turned off = %q, %q", s, tr)
	}
	if got := cfg.ManifestPath(); got != filepath.Join("d", "x-manifest.json") {
		t.Fatalf("manifest path = %q", got)
	}
}

// TestManifestV2ShardFields pins the v2 schema's additive fields: the
// per-seed queue ledger and the cache snapshot's bypassed note — the
// manifest must say the artifacts could not have come from a cache while
// observability forces a bypass.
func TestManifestV2ShardFields(t *testing.T) {
	if ManifestSchema != "eac/obs/manifest/v2" {
		t.Fatalf("schema = %q; bump this pin only with a layout change", ManifestSchema)
	}
	m := NewManifest()
	m.Queue = map[string][]sim.Counters{"s1": {{Executed: 100, StreamSchedules: 90}}}
	m.Cache = &cache.Snapshot{Dir: "/c", Bypassed: "obs active"}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"queue"`,
		`"stream_schedules": 90`,
		`"bypassed": "obs active"`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("manifest JSON missing %s:\n%s", want, b)
		}
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache.Bypassed != "obs active" ||
		!reflect.DeepEqual(got.Queue, m.Queue) {
		t.Fatalf("round trip = %+v", got)
	}
	// A manifest without them omits the fields entirely (v1 compatibility).
	m2 := NewManifest()
	if err := m2.Write(path); err != nil {
		t.Fatal(err)
	}
	if b, _ = os.ReadFile(path); strings.Contains(string(b), "shard") ||
		strings.Contains(string(b), "bypassed") || strings.Contains(string(b), "queue") {
		t.Fatalf("serial manifest leaked shard/bypass/queue fields:\n%s", b)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest()
	if m.Schema != ManifestSchema || m.GoVersion == "" || m.NumCPU < 1 {
		t.Fatalf("NewManifest = %+v", m)
	}
	m.Workers = 4
	m.Seeds = []uint64{1, 2}
	m.WallSeconds = 1.5
	m.Config = map[string]any{"method": "eac"}
	m.Summary = map[string]any{"utilization": 0.87}
	m.Artifacts = []string{"a.csv"}
	path := filepath.Join(t.TempDir(), "sub", "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != m.Schema || got.Workers != 4 || len(got.Seeds) != 2 ||
		got.Config["method"] != "eac" || got.Artifacts[0] != "a.csv" {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestFlushAllocsPerEvent bounds what rendering costs per event: no JSONL
// form or series row may allocate per event.
func TestFlushAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1000
	c := New(Config{Enabled: true, MetricsInterval: sim.Second, TraceCapacity: n}, 1)
	c.RegisterClass("voice")
	tap := c.RegisterLink("L0")
	for j := 0; j < n; j++ {
		at := sim.Time(j) * sim.Millisecond
		switch j % 4 {
		case 0:
			c.Arrival(at, j, 0)
			c.SpanProbeStart(at, j, 0)
		case 1:
			c.Decision(at, j-1, 0, true, 1, 0.004)
		default:
			tap.Enqueue(at, j, 0, 1500, int64(j)<<20, 300)
		}
		c.AddSample(Sample{T: at.Sec(), Depth: 300, Util: 0.7, VQBacklog: 1 << 20,
			Arrived: [2]int64{1 << 30, 1 << 20}, FluidBg: 2.5e6, FluidMark: 0.125})
	}
	// Per event: nothing. The encoder is handed a pointer to a reused value
	// (a struct boxed per record was one allocation each), a decided span's
	// *bool points into the span, a series row is strconv.
	for _, a := range []struct {
		name   string
		events int
		render func(io.Writer) error
	}{
		{"trace", n, c.WriteTrace}, {"spans", c.SpanCount(), c.WriteSpans}, {"series", n, c.WriteSeries},
	} {
		got := testing.AllocsPerRun(5, func() {
			if err := a.render(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if got > 16 {
			t.Errorf("%s: %.0f allocs for %d events, want <= 16", a.name, got, a.events)
		}
	}
}
