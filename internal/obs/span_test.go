package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"eac/internal/sim"
)

func spanCollector() *Collector {
	c := New(Config{Enabled: true, TraceCapacity: 16}, 1)
	c.RegisterClass("voice")
	c.RegisterClass("video")
	c.SetDuration(100 * sim.Second)
	return c
}

func TestSpanLifecycle(t *testing.T) {
	c := spanCollector()
	c.SpanProbeStart(1*sim.Second, 0, 0)
	c.Decision(4*sim.Second, 0, 0, true, 1, 0.002)
	c.SpanDataStart(4*sim.Second, 0, 0)
	c.SpanDataEnd(30*sim.Second, 0)
	if c.SpanCount() != 1 {
		t.Fatalf("SpanCount = %d, want 1", c.SpanCount())
	}
	var b strings.Builder
	if err := c.WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	var ev spanEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Flow != 0 || ev.Class != "voice" || ev.ProbeStart != 1 || ev.Decided != 4 ||
		ev.Accepted == nil || !*ev.Accepted || ev.Attempts != 1 || ev.Frac != float64(float32(0.002)) ||
		ev.DataStart != 4 || ev.DataEnd != 30 {
		t.Fatalf("span event = %+v", ev)
	}
}

// TestSpanRetryKeepsFirstProbeStart: the span covers the whole admission
// attempt sequence — a retry must not reset probe_start.
func TestSpanRetryKeepsFirstProbeStart(t *testing.T) {
	c := spanCollector()
	c.SpanProbeStart(1*sim.Second, 5, 1)
	c.SpanProbeStart(9*sim.Second, 5, 1) // retry after back-off
	c.Decision(12*sim.Second, 5, 1, false, 2, 0.4)
	var b strings.Builder
	if err := c.WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	var ev spanEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.ProbeStart != 1 || ev.Attempts != 2 || ev.Accepted == nil || *ev.Accepted {
		t.Fatalf("retried span = %+v", ev)
	}
}

// TestSpanUnsetPhasesSerializeAsMinusOne: a prepopulated flow (no probe)
// that is still alive at run end has probe and data-end sentinels.
func TestSpanUnsetPhasesSerializeAsMinusOne(t *testing.T) {
	c := spanCollector()
	c.SpanDataStart(0, 3, 1)
	var b strings.Builder
	if err := c.WriteSpans(&b); err != nil {
		t.Fatal(err)
	}
	var ev spanEvent
	if err := json.Unmarshal([]byte(strings.TrimSpace(b.String())), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.ProbeStart != -1 || ev.Decided != -1 || ev.DataEnd != -1 || ev.Accepted != nil {
		t.Fatalf("prepopulated span = %+v", ev)
	}
	if ev.Class != "video" {
		t.Fatalf("class = %q, want video", ev.Class)
	}
}

func TestSpanDisabledCollectorRecordsNothing(t *testing.T) {
	var nilC *Collector
	nilC.SpanProbeStart(0, 0, 0)
	nilC.SpanDataStart(0, 0, 0)
	nilC.SpanDataEnd(0, 0)
	if nilC.SpanCount() != 0 {
		t.Fatal("nil collector recorded spans")
	}
	c := New(Config{Enabled: true}, 1) // no trace capacity: spans off
	c.SpanProbeStart(0, 0, 0)
	if c.SpanCount() != 0 {
		t.Fatal("untraced collector recorded spans")
	}
}

// TestPerfettoClampsOpenPhases: a flow still probing (or still sending)
// at run end gets a span clamped to the run duration, never a negative
// duration.
func TestPerfettoClampsOpenPhases(t *testing.T) {
	c := spanCollector()
	c.SpanProbeStart(95*sim.Second, 0, 0) // undecided at run end
	c.SpanDataStart(40*sim.Second, 1, 1)  // alive at run end
	var b strings.Builder
	if err := c.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var x int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		x++
		if ev.Dur < 0 {
			t.Fatalf("negative duration: %+v", ev)
		}
		switch ev.Name {
		case "probe":
			if ev.Ts != 95e6 || ev.Dur != 5e6 {
				t.Fatalf("open probe span = %+v, want clamp to t=100s", ev)
			}
		case "data":
			if ev.Ts != 40e6 || ev.Dur != 60e6 {
				t.Fatalf("open data span = %+v, want clamp to t=100s", ev)
			}
		}
	}
	if x != 2 {
		t.Fatalf("duration events = %d, want 2", x)
	}
}

func TestPerfettoRejectedProbeNamed(t *testing.T) {
	c := spanCollector()
	c.SpanProbeStart(1*sim.Second, 0, 0)
	c.Decision(3*sim.Second, 0, 0, false, 1, 0.3)
	var b strings.Builder
	if err := c.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"probe (rejected)"`) {
		t.Fatalf("rejected probe not named: %s", b.String())
	}
}
