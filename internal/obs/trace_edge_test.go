package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"eac/internal/sim"
)

// Ring-buffer edge cases around the wrap boundary: exactly at capacity
// nothing is dropped; one past capacity drops exactly one and the
// survivor window slides; a capacity-1 ring degenerates to "latest event
// only". TestRingWrapsAndCountsDropped covers the steady-state wrap.

func fillRing(c *Collector, n int) *LinkTap {
	tap := c.RegisterLink("L0")
	for i := 0; i < n; i++ {
		tap.Enqueue(sim.Time(i)*sim.Second, i, 0, 100, int64(i), i)
	}
	return tap
}

func traceFlows(t *testing.T, c *Collector) []int {
	t.Helper()
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(b.String())
	if out == "" {
		return nil
	}
	var flows []int
	for _, line := range strings.Split(out, "\n") {
		var ev struct {
			Flow int `json:"flow"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		flows = append(flows, ev.Flow)
	}
	return flows
}

func TestRingExactCapacityDropsNothing(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	fillRing(c, 4)
	if c.TraceLen() != 4 || c.TraceDropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 4 and 0 at exact capacity", c.TraceLen(), c.TraceDropped())
	}
	if flows := traceFlows(t, c); len(flows) != 4 || flows[0] != 0 || flows[3] != 3 {
		t.Fatalf("flows = %v, want [0 1 2 3]", flows)
	}
}

func TestRingOnePastCapacityDropsOldest(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	fillRing(c, 5)
	if c.TraceLen() != 4 || c.TraceDropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 4 and 1", c.TraceLen(), c.TraceDropped())
	}
	// Oldest-first render after the wrap: event 0 was overwritten.
	if flows := traceFlows(t, c); len(flows) != 4 || flows[0] != 1 || flows[3] != 4 {
		t.Fatalf("flows = %v, want [1 2 3 4]", flows)
	}
}

func TestRingCapacityOneKeepsLatest(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 1}, 1)
	fillRing(c, 3)
	if c.TraceLen() != 1 || c.TraceDropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 1 and 2", c.TraceLen(), c.TraceDropped())
	}
	if flows := traceFlows(t, c); len(flows) != 1 || flows[0] != 2 {
		t.Fatalf("flows = %v, want [2]", flows)
	}
}

// TestRingWriteAfterMultipleWraps pins that repeated full wraps keep the
// oldest-first invariant: after 2.5 revolutions of a 4-slot ring the
// window is still the last four events in order.
func TestRingWriteAfterMultipleWraps(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	fillRing(c, 10)
	if c.TraceDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", c.TraceDropped())
	}
	flows := traceFlows(t, c)
	want := []int{6, 7, 8, 9}
	if len(flows) != len(want) {
		t.Fatalf("flows = %v, want %v", flows, want)
	}
	for i := range want {
		if flows[i] != want[i] {
			t.Fatalf("flows = %v, want %v", flows, want)
		}
	}
}

// TestTraceOrdersLateRecords: a link finishes transmissions lazily, so its
// dequeue events reach the ring after events of later instants. The
// written trace is in time order all the same — also when the ring has
// wrapped — and events of one instant keep their push order.
func TestTraceOrdersLateRecords(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	tap := c.RegisterLink("A")
	tap.Enqueue(1*sim.Second, 1, 0, 1, 0, 0) // overwritten: the ring holds four
	tap.Enqueue(2*sim.Second, 2, 0, 1, 0, 0)
	tap.Enqueue(5*sim.Second, 3, 0, 1, 0, 0)
	tap.Dequeue(3*sim.Second, 4, 0, 1, 0, 0) // late: ended at 3 s, seen at 5 s
	tap.Drop(5*sim.Second, 5, 0, 1, 0, 0)    // same instant as flow 3's enqueue, pushed after it
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
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
	want := []string{"2 enqueue 2", "3 dequeue 4", "5 enqueue 3", "5 drop 5"}
	if !slices.Equal(got, want) {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}
