package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

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

// TestObsDisabledByteIdentical is the PR's core guarantee: a run with no
// observability config, a run with a constructed-but-disabled collector,
// and a run with sampling enabled all produce identical Metrics — the
// telemetry layer observes without perturbing the simulation.
func TestObsDisabledByteIdentical(t *testing.T) {
	base, err := Run(shortCfg())
	if err != nil {
		t.Fatal(err)
	}

	// Constructed but disabled: Collector exists, every record is a no-op.
	cfg := shortCfg()
	cfg.Obs = obs.Config{MetricsInterval: sim.Second, TraceCapacity: 1 << 10}
	if !cfg.Obs.Active() || cfg.Obs.Enabled {
		t.Fatal("test config must construct a disabled collector")
	}
	disabled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, disabled) {
		t.Fatalf("constructed-but-disabled collector changed metrics:\nbase %+v\nobs  %+v", base, disabled)
	}

	// Enabled sampling and tracing: the collector's events only read
	// simulator state, so the metrics still must not move.
	cfg = shortCfg()
	cfg.Obs = obs.Config{
		Enabled: true, Dir: t.TempDir(),
		MetricsInterval: sim.Second, TraceCapacity: 1 << 10,
	}
	enabled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, enabled) {
		t.Fatalf("enabled collector changed metrics:\nbase %+v\nobs  %+v", base, enabled)
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
	c := r.obs.Collector(0)
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
	cfg := Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		Method:       None, // admit everything; only queueing could drop
		InterArrival: 3.5,  // ~11% offered load: the queue stays empty
		LifetimeSec:  30,
		Duration:     60 * sim.Second,
		Warmup:       5 * sim.Second,
		Drain:        sim.Millisecond, // < 20 ms link delay: in-flight tail
		Seed:         1,
	}
	m, err := Run(cfg)
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
