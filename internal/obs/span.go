package obs

import (
	"encoding/json"
	"io"

	"eac/internal/sim"
)

// spanRec accumulates one flow's admission lifecycle: probe start →
// marks observed during probing (summarized by the deciding stage's
// bad-packet fraction) → admission decision → data lifetime → teardown.
// Times are sim.Time with -1 meaning "never happened" (e.g. a
// prepopulated flow has no probe phase; a flow alive at run end has no
// data end). Spans are collected only while tracing — they ride with
// the event trace and share its enable switch.
type spanRec struct {
	flow       int32
	class      int32 // -1 until known
	attempts   int32
	decided    bool
	accepted   bool
	frac       float32 // deciding probe stage's measured bad-packet fraction
	probeStart sim.Time
	decidedAt  sim.Time
	dataStart  sim.Time
	dataEnd    sim.Time
}

// span returns the flow's span record, creating it on first touch.
// Callers must have checked Tracing().
func (c *Collector) span(flow int) *spanRec {
	for flow >= len(c.spanIdx) {
		c.spanIdx = append(c.spanIdx, 0)
	}
	if c.spanIdx[flow] == 0 {
		c.spans = append(c.spans, spanRec{
			flow: int32(flow), class: -1,
			probeStart: -1, decidedAt: -1, dataStart: -1, dataEnd: -1,
		})
		c.spanIdx[flow] = int32(len(c.spans))
	}
	return &c.spans[c.spanIdx[flow]-1]
}

// SpanProbeStart records the start of a flow's probing phase. Retries
// keep the first probe's start time — the span then covers the whole
// admission attempt sequence, with the attempt count recorded at
// decision time. No-op unless tracing.
func (c *Collector) SpanProbeStart(now sim.Time, flow, class int) {
	if !c.Tracing() {
		return
	}
	s := c.span(flow)
	if s.probeStart < 0 {
		s.probeStart = now
	}
	s.class = int32(class)
}

// SpanDataStart records the start of a flow's data phase. No-op unless
// tracing.
func (c *Collector) SpanDataStart(now sim.Time, flow, class int) {
	if !c.Tracing() {
		return
	}
	s := c.span(flow)
	s.dataStart = now
	if s.class < 0 {
		s.class = int32(class)
	}
}

// SpanDataEnd records a flow's teardown (its data lifetime expired).
// No-op unless tracing.
func (c *Collector) SpanDataEnd(now sim.Time, flow int) {
	if !c.Tracing() {
		return
	}
	c.span(flow).dataEnd = now
}

// SpanCount returns the number of flows with a span record.
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	return len(c.spans)
}

// spanEvent is the JSONL form of one flow lifecycle. Times are seconds;
// -1 marks a phase the flow never entered (or had not finished by run
// end, for data_end).
type spanEvent struct {
	Flow       int32   `json:"flow"`
	Class      string  `json:"class"`
	ProbeStart float64 `json:"probe_start"`
	Decided    float64 `json:"decided"`
	Accepted   *bool   `json:"accepted,omitempty"`
	Attempts   int32   `json:"attempts,omitempty"`
	Frac       float64 `json:"frac"`
	DataStart  float64 `json:"data_start"`
	DataEnd    float64 `json:"data_end"`
}

func sec(t sim.Time) float64 {
	if t < 0 {
		return -1
	}
	return t.Sec()
}

// spanEvent writes the JSONL form of s into ev.
func (c *Collector) spanEvent(ev *spanEvent, s *spanRec) {
	*ev = spanEvent{
		Flow:       s.flow,
		Class:      c.ClassName(int(s.class)),
		ProbeStart: sec(s.probeStart),
		Decided:    sec(s.decidedAt),
		Frac:       float64(s.frac),
		DataStart:  sec(s.dataStart),
		DataEnd:    sec(s.dataEnd),
	}
	if s.decided {
		ev.Accepted = &s.accepted
		ev.Attempts = s.attempts
	}
}

// perfettoEvent is one Chrome trace-event ("X" = complete event with a
// duration, "M" = metadata). ts and dur are microseconds.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t sim.Time) float64 { return t.Sec() * 1e6 }

// WriteSpans renders the probe-lifecycle spans as JSONL, one flow per line
// in flow-creation order.
func (c *Collector) WriteSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	var ev spanEvent
	for i := range c.spans {
		c.spanEvent(&ev, &c.spans[i])
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}

// WritePerfetto renders the spans as one Chrome/Perfetto trace-event JSON
// document: one track per flow (pid 0, tid = flow; the process is named
// "shard 0", a constant of the format), probe and data phases as duration
// events, phases still open at run end clamped to the run duration.
func (c *Collector) WritePerfetto(w io.Writer) error {
	doc := struct {
		TraceEvents     []perfettoEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	if len(c.spans) > 0 {
		doc.TraceEvents = c.perfettoEvents()
	}
	return json.NewEncoder(w).Encode(doc)
}

func (c *Collector) perfettoEvents() []perfettoEvent {
	evs := []perfettoEvent{{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "shard 0"},
	}}
	clamp := func(t sim.Time) sim.Time {
		if t < 0 || (c.dur > 0 && t > c.dur) {
			return c.dur
		}
		return t
	}
	for i := range c.spans {
		s := &c.spans[i]
		class := c.ClassName(int(s.class))
		if s.probeStart >= 0 {
			end := s.decidedAt
			if end < 0 {
				end = clamp(-1)
			}
			if end < s.probeStart {
				end = s.probeStart
			}
			name := "probe"
			if s.decided && !s.accepted {
				name = "probe (rejected)"
			}
			evs = append(evs, perfettoEvent{
				Name: name, Cat: "admission", Ph: "X",
				Ts: usec(s.probeStart), Dur: usec(end - s.probeStart),
				Pid: 0, Tid: s.flow,
				Args: map[string]any{
					"class": class, "attempts": s.attempts,
					"frac": float64(s.frac), "accepted": s.decided && s.accepted,
				},
			})
		}
		if s.dataStart >= 0 {
			end := clamp(s.dataEnd)
			if end < s.dataStart {
				end = s.dataStart
			}
			evs = append(evs, perfettoEvent{
				Name: "data", Cat: "lifetime", Ph: "X",
				Ts: usec(s.dataStart), Dur: usec(end - s.dataStart),
				Pid: 0, Tid: s.flow,
				Args: map[string]any{"class": class},
			})
		}
	}
	return evs
}
