package obs

import (
	"cmp"
	"slices"

	"eac/internal/sim"
)

// Trace event kinds, in the order they appear in JSONL output.
const (
	evEnqueue uint8 = iota
	evDequeue
	evDrop
	evMark
	evAdmit
	evReject
	// evHandoff records a packet crossing a shard boundary: transmission
	// on a boundary link finished and the packet was handed to the
	// neighbouring shard's portal. Serial runs never emit it. New kinds
	// must be appended here — the order is serialized in JSONL output.
	evHandoff
	// evEpoch records one completed adaptation epoch of the
	// epoch-adaptive admission policy: the ε now in force plus the
	// epoch's rejection and loss rates. Static-policy runs
	// never emit it.
	evEpoch
	// evArrival records one flow arrival (offered, before any admission
	// decision): the flow id and its class. These events make a trace
	// replayable as a workload — scenario.ParseReplay re-drives the exact
	// arrival sequence through a fresh run.
	evArrival
)

var evNames = [...]string{"enqueue", "dequeue", "drop", "mark", "admit", "reject", "handoff", "epoch", "arrival"}

// traceRec is the compact in-ring representation of one event. Packet
// events use link/kind/a(size)/b(seq)/depth; admission decisions use
// link = -1 with kind holding the class index, a the attempt count, and
// frac the measured bad-packet fraction.
type traceRec struct {
	at    sim.Time
	ev    uint8
	kind  uint8
	link  int16
	flow  int32
	depth int32
	a, b  int64
	frac  float32
}

// ring is a fixed-capacity event buffer that overwrites its oldest
// entries; dropped counts the overwritten events.
type ring struct {
	buf     []traceRec
	head    int // index of the oldest record
	n       int
	dropped int64
}

func (r *ring) push(rec traceRec) {
	if len(r.buf) == 0 {
		return
	}
	if r.n == len(r.buf) {
		r.buf[r.head] = rec
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = rec
	r.n++
}

func (r *ring) at(i int) traceRec { return r.buf[(r.head+i)%len(r.buf)] }

// sortByTime puts the buffered records in time order, records of one instant
// staying in push order. Push order is time order but for a link's dequeue
// and handoff events: netsim.Link finishes transmissions lazily and emits
// those, with their true timestamps, when it next looks at the link.
func (r *ring) sortByTime() {
	if r.head != 0 { // full and wrapped: rotate the oldest record to the front
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	slices.SortStableFunc(r.buf[:r.n], func(a, b traceRec) int { return cmp.Compare(a.at, b.at) })
}

// packetEvent is the JSONL form of a packet-level trace event. Like every
// event form it ends in the owning shard, nil (omitted) in a set of one.
type packetEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Link  string  `json:"link"`
	Flow  int32   `json:"flow"`
	Kind  string  `json:"kind"`
	Size  int64   `json:"size"`
	Seq   int64   `json:"seq"`
	Depth int32   `json:"depth"`
	Shard *int    `json:"shard,omitempty"`
}

// decisionEvent is the JSONL form of an admission decision.
type decisionEvent struct {
	T       float64 `json:"t"`
	Ev      string  `json:"ev"`
	Flow    int32   `json:"flow"`
	Class   int     `json:"class"`
	Attempt int64   `json:"attempt"`
	Frac    float64 `json:"frac"`
	Shard   *int    `json:"shard,omitempty"`
}

// arrivalEvent is the JSONL form of a flow arrival. The field set is the
// replay contract: scenario.ParseReplay reads exactly {t, ev, class} and
// ignores everything else, so renaming these keys breaks recorded traces.
type arrivalEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Flow  int32   `json:"flow"`
	Class int     `json:"class"`
	Shard *int    `json:"shard,omitempty"`
}

// epochEvent is the JSONL form of a policy adaptation epoch.
type epochEvent struct {
	T          float64 `json:"t"`
	Ev         string  `json:"ev"`
	Epoch      int32   `json:"epoch"`
	Eps        float64 `json:"eps"`
	RejectRate float64 `json:"reject_rate"`
	LossRate   float64 `json:"loss_rate"`
	Shard      *int    `json:"shard,omitempty"`
}

var pktKindNames = [...]string{"data", "probe"}

// Epoch records one completed adaptation epoch of an adaptive admission
// policy in the event trace: the ε trajectory becomes a per-run series of
// epoch events. Rates are scaled to parts-per-million in the compact ring
// record and restored on output. Nil-safe; a no-op unless tracing.
func (c *Collector) Epoch(now sim.Time, epoch int, eps, rejRate, lossRate float64) {
	if !c.Tracing() {
		return
	}
	c.trace.push(traceRec{
		at: now, ev: evEpoch, link: -1, flow: int32(epoch),
		a: int64(rejRate * 1e6), b: int64(lossRate * 1e6), frac: float32(eps),
	})
}

// Arrival records one offered flow arrival in the event trace. The class
// rides in the wide a field (not the uint8 kind) so class indices above
// 255 survive the round trip. Nil-safe; a no-op unless tracing.
func (c *Collector) Arrival(now sim.Time, flow, class int) {
	if !c.Tracing() {
		return
	}
	c.trace.push(traceRec{at: now, ev: evArrival, link: -1, flow: int32(flow), a: int64(class)})
}

// TraceLen returns the number of buffered trace events.
func (c *Collector) TraceLen() int {
	if c == nil {
		return 0
	}
	return c.trace.n
}

// TraceDropped returns how many events the ring discarded after filling.
func (c *Collector) TraceDropped() int64 {
	if c == nil {
		return 0
	}
	return c.trace.dropped
}

// traceForms holds one value per JSONL form: traceEvent fills the one a
// record needs and returns a pointer to it (put), so the encoder is handed
// no freshly boxed struct per record.
type traceForms struct {
	pkt packetEvent
	dec decisionEvent
	arr arrivalEvent
	ep  epochEvent
}

func put[T any](dst *T, v T) any { *dst = v; return dst }

// traceEvent builds, in f, the JSONL form of one buffered record, tagged
// with the owning shard (nil in a set of one).
func (c *Collector) traceEvent(f *traceForms, rec traceRec, shard *int) any {
	if rec.ev == evAdmit || rec.ev == evReject {
		return put(&f.dec, decisionEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow,
			Class: int(rec.kind), Attempt: rec.a, Frac: float64(rec.frac), Shard: shard,
		})
	}
	if rec.ev == evArrival {
		return put(&f.arr, arrivalEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow, Class: int(rec.a), Shard: shard,
		})
	}
	if rec.ev == evEpoch {
		return put(&f.ep, epochEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Epoch: rec.flow, Eps: float64(rec.frac),
			RejectRate: float64(rec.a) / 1e6, LossRate: float64(rec.b) / 1e6, Shard: shard,
		})
	}
	kind := "data"
	if int(rec.kind) < len(pktKindNames) {
		kind = pktKindNames[rec.kind]
	}
	return put(&f.pkt, packetEvent{
		T: rec.at.Sec(), Ev: evNames[rec.ev], Link: c.LinkName(int(rec.link)),
		Flow: rec.flow, Kind: kind, Size: rec.a, Seq: rec.b, Depth: rec.depth, Shard: shard,
	})
}
