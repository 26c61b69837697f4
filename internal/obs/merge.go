package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"eac/internal/sim"
)

// Merged owns one Collector per shard domain of a run and is the only
// writer of its artifacts: a single series CSV and trace JSONL ordered by
// (time, shard, sequence), a single span file, histogram document and
// Perfetto export. A set of more than one collector tags every row and
// event with the owning shard (a `shard` column after `t_s`, a trailing
// `"shard"` field); a set of one — a serial run — writes the same formats
// without the tag, and its k-way merges degenerate to in-order.
//
// Each shard's collector is touched only by that shard's goroutine
// during the run (collectors are single-goroutine state; the barrier at
// run end publishes them to the merging goroutine), so the zero-overhead
// and nil-safety contracts of Collector carry over per shard. A nil
// *Merged is the canonical "disabled" value, mirroring *Collector: the
// methods a run calls (Collector, SetShardExecuted, Flush) are
// nil-safe, the Write methods need a set.
type Merged struct {
	cfg  Config
	seed uint64
	cs   []*Collector
	// tags[i] is the shard tag events of cs[i] carry: &i, or nil in a set
	// of one. Built once — a per-event &i would heap-allocate per event.
	tags []*int
	exec []uint64
}

// NewMerged returns a collector set with k per-shard collectors, or nil
// unless cfg.Enabled. The trace capacity is split across shards
// (ceil(TraceCapacity/k) each) so a sharded run buffers about as many
// events in total as a serial one.
func NewMerged(cfg Config, seed uint64, k int) *Merged {
	if !cfg.Enabled || k < 1 {
		return nil
	}
	per := cfg
	if cfg.TraceCapacity > 0 {
		per.TraceCapacity = (cfg.TraceCapacity + k - 1) / k
	}
	m := &Merged{cfg: cfg, seed: seed, cs: make([]*Collector, k), tags: make([]*int, k)}
	for i := range m.cs {
		m.cs[i] = New(per, seed)
		if k > 1 {
			shard := i
			m.tags[i] = &shard
		}
	}
	return m
}

// Collector returns shard i's collector (nil on a nil set, so slots of
// an unobserved run keep their nil collectors).
func (m *Merged) Collector(i int) *Collector {
	if m == nil {
		return nil
	}
	return m.cs[i]
}

// SetShardExecuted records the per-shard executed-event counts for the
// histogram artifact.
func (m *Merged) SetShardExecuted(exec []uint64) {
	if m != nil {
		m.exec = exec
	}
}

// WriteSeries renders all shards' time series as one CSV ordered by
// (time, shard, within-shard sample order); a set of more than one has a
// shard column after the timestamp.
func (m *Merged) WriteSeries(w io.Writer) error {
	shardCol := ""
	if len(m.cs) > 1 {
		shardCol = "shard,"
	}
	if _, err := io.WriteString(w, "t_s,"+shardCol+"link,depth,busy,active_flows,util,vq_backlog_bytes,"+
		"data_arrived,data_dropped,data_marked,data_sent_pkts,"+
		"probe_arrived,probe_dropped,probe_marked,probe_sent_pkts,"+
		"fluid_bg_bps,fluid_mark\n"); err != nil {
		return err
	}
	var row []byte
	return mergeByTime(m.cs, func(c *Collector) int { return len(c.sams) },
		func(c *Collector, i int) float64 { return c.sams[i].T },
		func(shard, i int) error {
			c := m.cs[shard]
			s := &c.sams[i]
			var busy int64
			if s.Busy {
				busy = 1
			}
			// strconv into one reused buffer, not Fprintf: the same bytes as
			// %.6f / %d / %.0f with no boxing of 17 arguments per row.
			row = strconv.AppendFloat(row[:0], s.T, 'f', 6, 64)
			if len(m.cs) > 1 {
				row = strconv.AppendInt(append(row, ','), int64(shard), 10)
			}
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
			_, err := w.Write(row)
			return err
		})
}

// WriteTrace k-way-merges the per-shard rings into one JSONL stream
// ordered by (time, shard, ring order), oldest first — one JSON object
// per line. Each ring is put in time order first (ring.sortByTime: push
// order is the shard's event order, which a lazily finished transmission
// leaves). Packet events carry link/kind/size/seq/depth, admit/reject
// events class/attempt/frac.
func (m *Merged) WriteTrace(w io.Writer) error {
	for _, c := range m.cs {
		c.trace.sortByTime()
	}
	enc := json.NewEncoder(w)
	var forms traceForms
	return mergeByTime(m.cs, func(c *Collector) int { return c.trace.n },
		func(c *Collector, i int) sim.Time { return c.trace.at(i).at },
		func(shard, i int) error {
			c := m.cs[shard]
			return enc.Encode(c.traceEvent(&forms, c.trace.at(i), m.tags[shard]))
		})
}

// mergeByTime visits every shard's records in (time, shard, record order)
// order — the k-way merge behind the series and the trace. n is a
// collector's record count, at the time of its i-th record, which must
// not decrease with i; visit gets each record's shard and index.
func mergeByTime[T cmp.Ordered](cs []*Collector, n func(*Collector) int, at func(*Collector, int) T, visit func(shard, i int) error) error {
	idx := make([]int, len(cs))
	for {
		best := -1
		var bestAt T
		for shard, c := range cs {
			if idx[shard] >= n(c) {
				continue
			}
			if t := at(c, idx[shard]); best < 0 || t < bestAt {
				best, bestAt = shard, t
			}
		}
		if best < 0 {
			return nil
		}
		idx[best]++
		if err := visit(best, idx[best]-1); err != nil {
			return err
		}
	}
}

// WriteSpans renders every shard's probe-lifecycle spans as JSONL, one
// flow per line ordered by (shard, flow-creation order). Flow IDs are
// per-shard; (shard, flow) is the unique key.
func (m *Merged) WriteSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	var ev spanEvent
	for shard, c := range m.cs {
		for i := range c.spans {
			c.spanEvent(&ev, &c.spans[i], m.tags[shard])
			if err := enc.Encode(&ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePerfetto renders all shards' spans as one Chrome/Perfetto
// trace-event JSON document: one process per shard (a serial run is
// shard 0), one track per flow, probe and data phases as duration events.
func (m *Merged) WritePerfetto(w io.Writer) error {
	doc := struct {
		TraceEvents     []perfettoEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	for shard, c := range m.cs {
		doc.TraceEvents = c.appendPerfetto(doc.TraceEvents, shard)
	}
	return json.NewEncoder(w).Encode(doc)
}

// Flush renders each artifact the configuration enables into its file, in
// the fixed order series, trace, spans, hist, perfetto, and returns the
// paths written (also on error: the ones completed before it). A nil set
// flushes nothing.
func (m *Merged) Flush() ([]string, error) {
	if m == nil {
		return nil, nil
	}
	var paths []string
	for _, a := range []struct {
		path   string
		render func(io.Writer) error
	}{
		{m.cfg.SeriesPath(m.seed), m.WriteSeries},
		{m.cfg.TraceFile(m.seed), m.WriteTrace},
		{m.cfg.SpansPath(m.seed), m.WriteSpans},
		{m.cfg.HistPath(m.seed), m.WriteHist},
		{m.cfg.PerfettoFile(), m.WritePerfetto},
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
