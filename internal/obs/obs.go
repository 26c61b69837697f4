// Package obs is the simulation observability layer: per-queue telemetry
// time series, a ring-buffered packet/event trace, probe-lifecycle spans,
// log-bucket histograms, and structured run manifests that make every
// experiment an inspectable artifact.
//
// The layer is designed around one hard requirement: zero overhead and
// byte-identical simulation output when disabled. A nil *Collector is the
// disabled value — New returns one unless Config.Enabled — and every
// recording method, and Flush, is nil-safe. Producers guard their hot
// paths with a single pointer check (netsim.Link.Tap) or call the nil-safe
// methods directly (scenario.Runner), so the default configuration adds no
// events, no allocations, and no output changes — preserving the
// determinism guarantees of the parallel sweep engine.
//
// A Collector records a run's link taps, decisions, arrivals, epochs,
// delays, spans and series samples, and writes them (Flush). It is a
// serial-run feature: scenario.Config.Validate rejects it at Shards > 1,
// so a run owns at most one. EXPERIMENTS.md "Observability" describes the
// formats.
//
// Run manifests (manifest.go) tie the artifacts together: one JSON file
// per invocation recording configuration, seeds, worker count, wall-clock
// and summary metrics, so a results directory is self-describing.
package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"eac/internal/sim"
	"eac/internal/stats"
)

// Config selects which telemetry a run collects and where the artifacts
// land. Without Enabled no collector is constructed, whatever the other
// fields say, and the simulation's hot paths see only nil checks.
type Config struct {
	// Enabled is the switch: the other fields apply only when it is set.
	Enabled bool
	// Dir is the artifact output directory (default "." at flush time).
	Dir string
	// Label is the artifact filename stem (default "run"). Per-run files
	// are suffixed with the seed: <Label>-s<seed>-series.csv etc.
	Label string
	// MetricsInterval is the sim-time sampling period of the per-queue
	// time series; 0 disables the series.
	MetricsInterval sim.Time
	// TraceCapacity is the event-trace ring size in events; 0 disables
	// the trace. When the ring is full the oldest events are discarded
	// (the manifest and trace writer report how many).
	TraceCapacity int
	// TracePath, if set, overrides the trace artifact path. It names one
	// file, so it serves one run only (OneRun).
	TracePath string
	// PerfettoPath, if set, additionally exports the probe-lifecycle
	// spans as Chrome/Perfetto trace-event JSON to this path (open with
	// ui.perfetto.dev or chrome://tracing). Spans ride with the event
	// trace, so this requires TraceCapacity > 0. One run only (OneRun).
	PerfettoPath string
}

// OneRun returns an error naming TracePath or PerfettoPath when c is
// enabled, sets one of them and would serve runs > 1 runs: every run
// after the first would overwrite the same file.
func (c Config) OneRun(runs int) error {
	if !c.Enabled || runs <= 1 {
		return nil
	}
	for _, p := range []struct{ field, path string }{
		{"TracePath", c.TracePath}, {"PerfettoPath", c.PerfettoPath}} {
		if p.path != "" {
			return fmt.Errorf("Obs.%s = %q names one file, but %d runs would write it; leave it empty for per-run names", p.field, p.path, runs)
		}
	}
	return nil
}

func (c Config) label() string {
	if c.Label == "" {
		return "run"
	}
	return c.Label
}

func (c Config) dir() string {
	if c.Dir == "" {
		return "."
	}
	return c.Dir
}

// seedPath is the path of one seed's artifact of the given kind, or ""
// when on is false (that artifact is not collected).
func (c Config) seedPath(on bool, seed uint64, kind string) string {
	if !on {
		return ""
	}
	return filepath.Join(c.dir(), fmt.Sprintf("%s-s%d-%s", c.label(), seed, kind))
}

// SeriesPath returns the per-queue time-series CSV path for one seed, or
// "" when the series is off.
func (c Config) SeriesPath(seed uint64) string {
	return c.seedPath(c.MetricsInterval > 0, seed, "series.csv")
}

// TraceFile returns the JSONL event-trace path for one seed, or "" when
// the trace is off.
func (c Config) TraceFile(seed uint64) string {
	if c.TracePath != "" && c.TraceCapacity > 0 {
		return c.TracePath
	}
	return c.seedPath(c.TraceCapacity > 0, seed, "trace.jsonl")
}

// SpansPath returns the probe-lifecycle span JSONL path for one seed, or
// "" when spans are off. Spans ride with the event trace: they are
// collected (and written) exactly when tracing is on.
func (c Config) SpansPath(seed uint64) string {
	return c.seedPath(c.TraceCapacity > 0, seed, "spans.jsonl")
}

// HistPath returns the log-bucket histogram JSON path (per-class delay
// and per-link queue-depth distributions) for one seed.
func (c Config) HistPath(seed uint64) string { return c.seedPath(true, seed, "hist.json") }

// PerfettoFile returns the Perfetto export path, or "" when not
// requested or when spans are unavailable (no trace).
func (c Config) PerfettoFile() string {
	if c.TraceCapacity <= 0 {
		return ""
	}
	return c.PerfettoPath
}

// ManifestPath returns the run-manifest path for this configuration.
func (c Config) ManifestPath() string {
	return filepath.Join(c.dir(), c.label()+"-manifest.json")
}

// Sample is one time-series point for one link, filled by the producer
// (scenario.Runner reads the link's counters) and appended verbatim.
type Sample struct {
	T           float64 // sim time, seconds
	Link        int     // link index (see Collector.LinkName)
	Depth       int     // real queue occupancy in packets, excluding in service
	Busy        bool    // a packet is on the wire
	ActiveFlows int     // flows currently in their data phase
	Util        float64 // data utilization of the link over the elapsed interval
	VQBacklog   int64   // virtual-queue shadow backlog, bytes (0 without a marker)

	// Cumulative link counters since the last stats reset, indexed by
	// packet kind (netsim.Data, netsim.Probe).
	Arrived, Dropped, Marked, SentPkts [2]int64

	// Hybrid-engine fluid trajectory (zero without a fluid background):
	// FluidBg is the offered background rate in bits/s, FluidMark the
	// combined drop-or-mark probability the fluid presents to foreground
	// packets at this instant.
	FluidBg, FluidMark float64
}

// Decisions aggregates admission outcomes observed by the collector.
type Decisions struct {
	Admitted, Rejected int64
}

// Collector records one run's telemetry and writes its artifacts. It is
// strictly single-run, single-goroutine state, and a nil *Collector is the
// disabled value.
type Collector struct {
	cfg     Config
	seed    uint64
	links   []string
	classes []string
	sams    []Sample
	trace   ring
	dec     Decisions
	dur     sim.Time // run duration; clamps open spans in exports

	// Log-bucket distributions.
	delayH []stats.LogHist // per class: end-to-end data-packet delay, ns
	depth  []stats.LogHist // per link: queue occupancy after each accepted enqueue

	// Probe-lifecycle spans, one per flow, collected while tracing.
	spans   []spanRec
	spanIdx []int32 // flow id -> index+1 into spans (0 = no span yet)
}

// New returns a collector for cfg, or nil unless cfg.Enabled. The seed
// names the artifact files, so multi-seed runs do not collide.
func New(cfg Config, seed uint64) *Collector {
	if !cfg.Enabled {
		return nil
	}
	c := &Collector{cfg: cfg, seed: seed}
	if cfg.TraceCapacity > 0 {
		c.trace.buf = make([]traceRec, cfg.TraceCapacity)
	}
	return c
}

// Sampling reports whether the time series is being collected.
func (c *Collector) Sampling() bool { return c != nil && c.cfg.MetricsInterval > 0 }

// Interval returns the configured sampling period.
func (c *Collector) Interval() sim.Time {
	if c == nil {
		return 0
	}
	return c.cfg.MetricsInterval
}

// Tracing reports whether the packet/event trace is being collected.
func (c *Collector) Tracing() bool { return c != nil && len(c.trace.buf) > 0 }

// RegisterLink declares one link and returns its tap for packet-level
// events, or nil when the collector is disabled (so links keep their
// zero-overhead nil check).
func (c *Collector) RegisterLink(name string) *LinkTap {
	if c == nil {
		return nil
	}
	c.links = append(c.links, name)
	c.depth = append(c.depth, stats.LogHist{})
	return &LinkTap{c: c, link: int16(len(c.links) - 1)}
}

// LinkName resolves a registered link index ("" if out of range).
func (c *Collector) LinkName(i int) string {
	if c == nil || i < 0 || i >= len(c.links) {
		return ""
	}
	return c.links[i]
}

// RegisterClass declares one traffic class (in class-index order) so
// delay histograms and span exports can carry class names. No-op when
// disabled.
func (c *Collector) RegisterClass(name string) {
	if c == nil {
		return
	}
	c.classes = append(c.classes, name)
	c.delayH = append(c.delayH, stats.LogHist{})
}

// ClassName resolves a registered class index ("" if out of range).
func (c *Collector) ClassName(i int) string {
	if c == nil || i < 0 || i >= len(c.classes) {
		return ""
	}
	return c.classes[i]
}

// SetDuration records the run's sim-time length; exports use it to clamp
// spans still open at run end. No-op when disabled.
func (c *Collector) SetDuration(d sim.Time) {
	if c != nil {
		c.dur = d
	}
}

// Delay records one delivered data packet's end-to-end window delay into
// the owning class's log-bucket histogram. No-op when disabled.
func (c *Collector) Delay(class int, d sim.Time) {
	if c == nil {
		return
	}
	if class >= 0 && class < len(c.delayH) {
		c.delayH[class].Add(int64(d))
	}
}

// AddSample appends one time-series point. No-op unless sampling.
func (c *Collector) AddSample(s Sample) {
	if !c.Sampling() {
		return
	}
	c.sams = append(c.sams, s)
}

// Samples returns the collected time series (nil when disabled).
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	return c.sams
}

// Decision records one admission outcome: counters always, plus a trace
// event when tracing. frac is the measured bad-packet fraction of the
// deciding probe stage (0 for methods that do not probe).
func (c *Collector) Decision(now sim.Time, flow, class int, accepted bool, attempt int, frac float64) {
	if c == nil {
		return
	}
	ev := evReject
	if accepted {
		c.dec.Admitted++
		ev = evAdmit
	} else {
		c.dec.Rejected++
	}
	if len(c.trace.buf) > 0 {
		r := c.trace.slot()
		r.at, r.ev, r.kind, r.link, r.flow, r.depth = now, ev, 0, -1, int32(flow), 0
		r.a, r.b, r.frac = int64(attempt), int64(class), float32(frac)
		s := c.span(flow)
		s.class = int32(class)
		s.decided = true
		s.accepted = accepted
		s.decidedAt = now
		s.attempts = int32(attempt)
		s.frac = float32(frac)
	}
}

// DecisionCounts returns the admission counters seen so far.
func (c *Collector) DecisionCounts() Decisions {
	if c == nil {
		return Decisions{}
	}
	return c.dec
}

// LinkTap feeds one link's packet-level events into the collector's
// trace. A nil tap (disabled observability) is the hot-path default;
// links guard every call with a single pointer check.
type LinkTap struct {
	c    *Collector
	link int16
}

func (t *LinkTap) record(now sim.Time, ev uint8, flow int, kind uint8, size int, seq int64, depth int) {
	if t == nil || len(t.c.trace.buf) == 0 {
		return
	}
	r := t.c.trace.slot()
	r.at, r.ev, r.kind, r.link, r.flow, r.depth = now, ev, kind, t.link, int32(flow), int32(depth)
	r.a, r.b, r.frac = int64(size), seq, 0
}

// Enqueue records a packet accepted into the queue (depth = occupancy
// after the insert). Besides the trace event, the occupancy feeds the
// link's log-bucket depth histogram, so the distribution is captured
// even when the trace ring has long since wrapped.
func (t *LinkTap) Enqueue(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	if t == nil {
		return
	}
	t.c.depth[t.link].Add(int64(depth))
	t.record(now, evEnqueue, flow, kind, size, seq, depth)
}

// Dequeue records a packet leaving the queue for transmission.
func (t *LinkTap) Dequeue(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evDequeue, flow, kind, size, seq, depth)
}

// Drop records a packet dropped at this link (tail drop, push-out, RED,
// or virtual dropping).
func (t *LinkTap) Drop(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evDrop, flow, kind, size, seq, depth)
}

// Mark records a virtual-queue ECN mark applied to a packet.
func (t *LinkTap) Mark(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evMark, flow, kind, size, seq, depth)
}

// WriteSeries renders the time series as CSV, one row per sample.
func (c *Collector) WriteSeries(w io.Writer) error {
	if _, err := io.WriteString(w, "t_s,link,depth,busy,active_flows,util,vq_backlog_bytes,"+
		"data_arrived,data_dropped,data_marked,data_sent_pkts,"+
		"probe_arrived,probe_dropped,probe_marked,probe_sent_pkts,"+
		"fluid_bg_bps,fluid_mark\n"); err != nil {
		return err
	}
	var row []byte
	for i := range c.sams {
		s := &c.sams[i]
		var busy int64
		if s.Busy {
			busy = 1
		}
		// strconv into one reused buffer, not Fprintf: the same bytes as
		// %.6f / %d / %.0f with no boxing of 17 arguments per row.
		row = strconv.AppendFloat(row[:0], s.T, 'f', 6, 64)
		row = append(append(row, ','), c.LinkName(s.Link)...)
		for _, v := range [...]int64{int64(s.Depth), busy, int64(s.ActiveFlows)} {
			row = strconv.AppendInt(append(row, ','), v, 10)
		}
		row = strconv.AppendFloat(append(row, ','), s.Util, 'f', 6, 64)
		row = strconv.AppendInt(append(row, ','), s.VQBacklog, 10)
		for kind := range s.Arrived {
			for _, v := range [...]int64{s.Arrived[kind], s.Dropped[kind], s.Marked[kind], s.SentPkts[kind]} {
				row = strconv.AppendInt(append(row, ','), v, 10)
			}
		}
		row = strconv.AppendFloat(append(row, ','), s.FluidBg, 'f', 0, 64)
		row = strconv.AppendFloat(append(row, ','), s.FluidMark, 'f', 6, 64)
		row = append(row, '\n')
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Flush renders each artifact the configuration enables into its file, in
// the fixed order series, trace, spans, hist, perfetto, and returns the
// paths written (also on error: the ones completed before it). A nil
// collector flushes nothing.
func (c *Collector) Flush() ([]string, error) {
	if c == nil {
		return nil, nil
	}
	var paths []string
	for _, a := range []struct {
		path   string
		render func(io.Writer) error
	}{
		{c.cfg.SeriesPath(c.seed), c.WriteSeries},
		{c.cfg.TraceFile(c.seed), c.WriteTrace},
		{c.cfg.SpansPath(c.seed), c.WriteSpans},
		{c.cfg.HistPath(c.seed), c.WriteHist},
		{c.cfg.PerfettoFile(), c.WritePerfetto},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.render); err != nil {
			return paths, err
		}
		paths = append(paths, a.path)
	}
	return paths, nil
}

func writeFile(path string, render func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
