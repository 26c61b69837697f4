package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"eac/internal/sim"
)

// Merged owns one Collector per shard domain of a sharded run and merges
// their telemetry deterministically at run end: a single series CSV and
// trace JSONL ordered by (time, shard, sequence), a single span file and
// histogram document, all under the same artifact names a serial run
// would use — plus a `shard` column/field identifying the owning domain.
//
// Each shard's collector is touched only by that shard's goroutine
// during the run (collectors are single-goroutine state; the barrier at
// run end publishes them to the merging goroutine), so the zero-overhead
// and nil-safety contracts of Collector carry over per shard. A nil
// *Merged is the canonical "disabled" value, mirroring *Collector.
type Merged struct {
	cfg  Config
	seed uint64
	cs   []*Collector
	exec []uint64
}

// NewMerged returns a merged collector set with k per-shard collectors,
// or nil when cfg is fully zero. The trace capacity is split across
// shards (ceil(TraceCapacity/k) each) so a sharded run buffers about as
// many events in total as a serial one.
func NewMerged(cfg Config, seed uint64, k int) *Merged {
	if !cfg.Active() || k < 1 {
		return nil
	}
	per := cfg
	if cfg.TraceCapacity > 0 {
		per.TraceCapacity = (cfg.TraceCapacity + k - 1) / k
	}
	m := &Merged{cfg: cfg, seed: seed, cs: make([]*Collector, k)}
	for i := range m.cs {
		m.cs[i] = New(per, seed)
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

// Shards returns the number of per-shard collectors.
func (m *Merged) Shards() int {
	if m == nil {
		return 0
	}
	return len(m.cs)
}

// Enabled reports whether the set records anything.
func (m *Merged) Enabled() bool { return m != nil && m.cfg.Enabled }

// SetShardExecuted records the per-shard executed-event counts for the
// histogram artifact and the run manifest.
func (m *Merged) SetShardExecuted(exec []uint64) {
	if m != nil {
		m.exec = exec
	}
}

// ShardExecuted returns the recorded per-shard event counts (nil until
// SetShardExecuted).
func (m *Merged) ShardExecuted() []uint64 {
	if m == nil {
		return nil
	}
	return m.exec
}

// TraceDropped totals ring-buffer overwrites across all shards.
func (m *Merged) TraceDropped() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, c := range m.cs {
		n += c.TraceDropped()
	}
	return n
}

// WriteSeries renders all shards' time series as one CSV ordered by
// (time, shard, within-shard sample order), with a shard column after
// the timestamp. The per-row format otherwise matches the serial CSV.
func (m *Merged) WriteSeries(w io.Writer) error {
	if _, err := io.WriteString(w, "t_s,shard,link,depth,busy,active_flows,util,vq_backlog_bytes,"+
		"data_arrived,data_dropped,data_marked,data_sent_pkts,"+
		"probe_arrived,probe_dropped,probe_marked,probe_sent_pkts\n"); err != nil {
		return err
	}
	idx := make([]int, len(m.cs))
	for {
		best := -1
		for shard, c := range m.cs {
			if idx[shard] >= len(c.Samples()) {
				continue
			}
			if best < 0 || c.sams[idx[shard]].T < m.cs[best].sams[idx[best]].T {
				best = shard
			}
		}
		if best < 0 {
			return nil
		}
		c := m.cs[best]
		s := c.sams[idx[best]]
		idx[best]++
		busy := 0
		if s.Busy {
			busy = 1
		}
		_, err := fmt.Fprintf(w, "%.6f,%d,%s,%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.T, best, c.LinkName(s.Link), s.Depth, busy, s.ActiveFlows, s.Util, s.VQBacklog,
			s.Arrived[0], s.Dropped[0], s.Marked[0], s.SentPkts[0],
			s.Arrived[1], s.Dropped[1], s.Marked[1], s.SentPkts[1])
		if err != nil {
			return err
		}
	}
}

// shardPacketEvent / shardDecisionEvent extend the serial JSONL forms
// with the owning shard.
type shardPacketEvent struct {
	packetEvent
	Shard int `json:"shard"`
}

type shardDecisionEvent struct {
	decisionEvent
	Shard int `json:"shard"`
}

type shardArrivalEvent struct {
	arrivalEvent
	Shard int `json:"shard"`
}

type shardEpochEvent struct {
	epochEvent
	Shard int `json:"shard"`
}

// WriteTrace k-way-merges the per-shard rings into one JSONL stream
// ordered by (time, shard, ring order); every event carries a shard
// field. Within one shard the ring is already in push order, which is
// that shard's event order.
func (m *Merged) WriteTrace(w io.Writer) error {
	if m == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	idx := make([]int, len(m.cs))
	for {
		best := -1
		var bestAt sim.Time
		for shard, c := range m.cs {
			if idx[shard] >= c.TraceLen() {
				continue
			}
			at := c.trace.at(idx[shard]).at
			if best < 0 || at < bestAt {
				best, bestAt = shard, at
			}
		}
		if best < 0 {
			return nil
		}
		c := m.cs[best]
		rec := c.trace.at(idx[best])
		idx[best]++
		var v any
		switch ev := c.traceEvent(rec).(type) {
		case packetEvent:
			v = shardPacketEvent{ev, best}
		case decisionEvent:
			v = shardDecisionEvent{ev, best}
		case arrivalEvent:
			v = shardArrivalEvent{ev, best}
		case epochEvent:
			// Previously fell through the switch and serialized as a bare
			// null line; epoch events now survive the shard merge too.
			v = shardEpochEvent{ev, best}
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
}

// WriteSpans renders every shard's probe-lifecycle spans as JSONL with a
// shard field, ordered by (shard, flow-creation order). Flow IDs are
// per-shard; (shard, flow) is the unique key.
func (m *Merged) WriteSpans(w io.Writer) error {
	if m == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for shard, c := range m.cs {
		for i := range c.spans {
			if err := enc.Encode(shardSpanEvent{c.spanEvent(&c.spans[i]), shard}); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteHist renders the cross-shard histogram document: delay
// histograms merged per class (exact, by log-bucket addition), depth
// histograms per (link, shard), decision counters and trace drops
// summed, per-shard executed-event counts included when recorded.
func (m *Merged) WriteHist(w io.Writer) error {
	if m == nil {
		return nil
	}
	return writeHist(w, m.cs, m.seed, m.exec)
}

// WritePerfetto renders all shards' spans as one Chrome/Perfetto trace:
// one process per shard, one track per flow.
func (m *Merged) WritePerfetto(w io.Writer) error {
	if m == nil {
		return nil
	}
	var evs []perfettoEvent
	for shard, c := range m.cs {
		evs = c.appendPerfetto(evs, shard)
	}
	return writePerfetto(w, evs)
}

// Flush writes the merged artifacts under the same names a serial run
// would use and returns the paths written. A set of one collector is a
// serial run and writes that collector's serial formats (no shard column).
// A nil or disabled set flushes nothing.
func (m *Merged) Flush() ([]string, error) {
	if !m.Enabled() {
		return nil, nil
	}
	if len(m.cs) == 1 {
		return m.cs[0].Flush()
	}
	return flushArtifacts(m.cfg, m.seed, m)
}
