package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"eac/internal/sim"
)

func TestNewMergedGating(t *testing.T) {
	if NewMerged(Config{MetricsInterval: sim.Second}, 1, 4) != nil {
		t.Fatal("disabled config constructed a merged set")
	}
	if NewMerged(Config{Enabled: true}, 1, 0) != nil {
		t.Fatal("k=0 constructed a merged set")
	}
	var nilM *Merged
	if nilM.Collector(0) != nil {
		t.Fatal("nil Merged reports state")
	}
	nilM.SetShardExecuted([]uint64{1}) // must not panic
	if paths, err := nilM.Flush(); err != nil || paths != nil {
		t.Fatalf("nil Flush = %v, %v", paths, err)
	}
}

func TestMergedSplitsTraceCapacity(t *testing.T) {
	m := NewMerged(Config{Enabled: true, TraceCapacity: 10}, 1, 3)
	// ceil(10/3) = 4 per shard.
	tap := m.Collector(0).RegisterLink("L0")
	for i := 0; i < 5; i++ {
		tap.Enqueue(0, i, 0, 1, 0, 0)
	}
	if c := m.Collector(0); c.TraceLen() != 4 || c.TraceDropped() != 1 {
		t.Fatalf("per-shard cap: len=%d dropped=%d, want 4 and 1", c.TraceLen(), c.TraceDropped())
	}
	if m.Collector(2).TraceLen() != 0 {
		t.Fatal("a third collector shares shard 0's ring")
	}
}

// TestMergedSeriesOrder pins the k-way merge invariant: rows ordered by
// (time, shard), ties broken toward the lowest shard — and that a sharded
// row is the serial row plus the shard column, fluid columns included.
func TestMergedSeriesOrder(t *testing.T) {
	m := NewMerged(Config{Enabled: true, MetricsInterval: sim.Second}, 1, 2)
	for i := 0; i < 2; i++ {
		m.Collector(i).RegisterLink("L" + string(rune('0'+i)))
	}
	// Shard 1 samples first in wall order, but shard 0's equal timestamp
	// must still come out first.
	m.Collector(1).AddSample(Sample{T: 1, Link: 0, Depth: 11})
	m.Collector(1).AddSample(Sample{T: 2, Link: 0, Depth: 12})
	m.Collector(0).AddSample(Sample{T: 1, Link: 0, Depth: 1})
	m.Collector(0).AddSample(Sample{T: 3, Link: 0, Depth: 3, FluidBg: 2.5e6, FluidMark: 0.125})
	var b strings.Builder
	if err := m.WriteSeries(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.HasPrefix(lines[0], "t_s,shard,link,") || !strings.HasSuffix(lines[0], ",fluid_bg_bps,fluid_mark") {
		t.Fatalf("header = %q", lines[0])
	}
	if last := "3.000000,0,L0,3,0,0,0.000000,0,0,0,0,0,0,0,0,0,2500000,0.125000"; lines[len(lines)-1] != last {
		t.Fatalf("last row = %q, want %q", lines[len(lines)-1], last)
	}
	want := []string{
		"1.000000,0,L0,1,", "1.000000,1,L1,11,", "2.000000,1,L1,12,", "3.000000,0,L0,3,",
	}
	if len(lines) != 1+len(want) {
		t.Fatalf("rows = %d, want %d", len(lines)-1, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[1+i], w) {
			t.Fatalf("row %d = %q, want prefix %q", i, lines[1+i], w)
		}
	}
}

// TestMergedTraceOrder pins the same invariant for the event trace, and
// that both packet and decision events carry the shard field.
func TestMergedTraceOrder(t *testing.T) {
	m := NewMerged(Config{Enabled: true, TraceCapacity: 8}, 1, 2)
	t0 := m.Collector(0).RegisterLink("A")
	t1 := m.Collector(1).RegisterLink("B")
	t1.Enqueue(1*sim.Second, 10, 0, 1, 0, 0)
	t1.Enqueue(3*sim.Second, 11, 0, 1, 0, 0)
	t0.Enqueue(1*sim.Second, 20, 0, 1, 0, 0)
	m.Collector(0).Decision(2*sim.Second, 21, 0, true, 1, 0)
	var b strings.Builder
	if err := m.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	type row struct {
		T     float64 `json:"t"`
		Ev    string  `json:"ev"`
		Flow  int     `json:"flow"`
		Shard int     `json:"shard"`
	}
	var rows []row
	for _, l := range lines {
		var r row
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	want := []row{
		{1, "enqueue", 20, 0}, // tie at t=1: shard 0 first
		{1, "enqueue", 10, 1},
		{2, "admit", 21, 0},
		{3, "enqueue", 11, 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

// TestTraceOrdersLateRecords: a link finishes transmissions lazily, so its
// dequeue and handoff events reach the ring after events of later instants.
// The written trace is in time order all the same — also when the ring has
// wrapped — and events of one instant keep their push order.
func TestTraceOrdersLateRecords(t *testing.T) {
	m := NewMerged(Config{Enabled: true, TraceCapacity: 4}, 1, 1)
	tap := m.Collector(0).RegisterLink("A")
	tap.Enqueue(1*sim.Second, 1, 0, 1, 0, 0) // overwritten: the ring holds four
	tap.Enqueue(2*sim.Second, 2, 0, 1, 0, 0)
	tap.Enqueue(5*sim.Second, 3, 0, 1, 0, 0)
	tap.Dequeue(3*sim.Second, 4, 0, 1, 0, 0) // late: ended at 3 s, seen at 5 s
	tap.Handoff(5*sim.Second, 5, 0, 1, 0)    // same instant as flow 3's enqueue, pushed after it
	var b strings.Builder
	if err := m.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var r struct {
			T    float64 `json:"t"`
			Ev   string  `json:"ev"`
			Flow int     `json:"flow"`
		}
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%v %s %d", r.T, r.Ev, r.Flow))
	}
	want := []string{"2 enqueue 2", "3 dequeue 4", "5 enqueue 3", "5 handoff 5"}
	if !slices.Equal(got, want) {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

// TestMergedHistMergesDelaysAcrossShards: per-class delay histograms sum
// exactly across shards; per-link depth histograms stay per shard.
func TestMergedHistMergesDelaysAcrossShards(t *testing.T) {
	m := NewMerged(Config{Enabled: true}, 7, 2)
	for i := 0; i < 2; i++ {
		c := m.Collector(i)
		c.RegisterClass("voice")
		c.RegisterLink("L" + string(rune('0'+i)))
	}
	m.Collector(0).Delay(0, 10*sim.Millisecond)
	m.Collector(0).Delay(0, 20*sim.Millisecond)
	m.Collector(1).Delay(0, 40*sim.Millisecond)
	m.SetShardExecuted([]uint64{100, 200})
	var b strings.Builder
	if err := m.WriteHist(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema        string   `json:"schema"`
		Seed          uint64   `json:"seed"`
		Shards        int      `json:"shards"`
		ShardExecuted []uint64 `json:"shard_executed"`
		DelayNs       []struct {
			Class  string  `json:"class"`
			N      int64   `json:"n"`
			MeanNs float64 `json:"mean_ns"`
		} `json:"delay_ns"`
		QueueDepth []struct {
			Link  string `json:"link"`
			Shard int    `json:"shard"`
		} `json:"queue_depth"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != HistSchema || doc.Seed != 7 || doc.Shards != 2 {
		t.Fatalf("hist header = %+v", doc)
	}
	if len(doc.DelayNs) != 1 || doc.DelayNs[0].N != 3 {
		t.Fatalf("delay merge = %+v, want one class with n=3", doc.DelayNs)
	}
	// Exact mean across shards: (10+20+40)ms / 3.
	if want := float64(70*sim.Millisecond) / 3; doc.DelayNs[0].MeanNs != want {
		t.Fatalf("merged mean = %v, want %v", doc.DelayNs[0].MeanNs, want)
	}
	if len(doc.QueueDepth) != 2 || doc.QueueDepth[0].Shard == doc.QueueDepth[1].Shard {
		t.Fatalf("queue depth = %+v, want one entry per (link, shard)", doc.QueueDepth)
	}
	if len(doc.ShardExecuted) != 2 || doc.ShardExecuted[1] != 200 {
		t.Fatalf("shard_executed = %v", doc.ShardExecuted)
	}
}

// TestFlushAllocsPerEvent bounds what rendering costs per event for a set
// of one and a set of two: neither the shard tag (a helper returning &i
// allocates, even when the set of one discards it) nor the event's JSONL
// form may allocate per event.
func TestFlushAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 1000
	for k := 1; k <= 2; k++ {
		m := NewMerged(Config{Enabled: true, MetricsInterval: sim.Second, TraceCapacity: k * n}, 1, k)
		for i := 0; i < k; i++ {
			c := m.Collector(i)
			c.RegisterClass("voice")
			tap := c.RegisterLink("L0")
			for j := 0; j < n/k; j++ {
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
		}
		spans := 0
		for i := 0; i < k; i++ {
			spans += m.Collector(i).SpanCount()
		}
		// Per event: nothing. The encoder is handed a pointer to a reused
		// value (a struct boxed per record was one allocation each), a decided
		// span's *bool points into the span, a series row is strconv.
		for _, a := range []struct {
			name        string
			events, per int
			render      func(io.Writer) error
		}{
			{"trace", n, 0, m.WriteTrace}, {"spans", spans, 0, m.WriteSpans}, {"series", n, 0, m.WriteSeries},
		} {
			got := testing.AllocsPerRun(5, func() {
				if err := a.render(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			if bound := float64(a.per*a.events + 16); got > bound {
				t.Errorf("K=%d %s: %.0f allocs for %d events, want <= %.0f", k, a.name, got, a.events, bound)
			}
		}
	}
}
