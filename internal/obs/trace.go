package obs

import (
	"cmp"
	"encoding/json"
	"io"
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

var evNames = [...]string{"enqueue", "dequeue", "drop", "mark", "admit", "reject", "epoch", "arrival"}

// traceRec is the compact in-ring representation of one event. Packet
// events use link/kind/a(size)/b(seq)/depth; admission decisions use
// link = -1 with b holding the class index (wide, like an arrival's a), a
// the attempt count, and frac the measured bad-packet fraction. Every
// writer fills every field of the slot it is given (ring.slot), stale
// ones included.
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

// slot returns the slot of the next record, the oldest one's once the ring
// is full, for the caller to fill in place: a record built elsewhere and
// copied in is written with narrow stores and read back with wide loads, a
// store-forwarding stall on every traced packet. The ring must have room
// for at least one record.
func (r *ring) slot() *traceRec {
	if r.n == len(r.buf) {
		i := r.head
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.dropped++
		return &r.buf[i]
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.n++
	return &r.buf[i]
}

func (r *ring) at(i int) traceRec { return r.buf[(r.head+i)%len(r.buf)] }

// sortByTime puts the buffered records in time order, records of one instant
// staying in push order. Push order is time order but for a link's dequeue
// events: netsim.Link finishes transmissions lazily and emits those, with
// their true timestamps, when it next looks at the link.
func (r *ring) sortByTime() {
	if r.head != 0 { // full and wrapped: rotate the oldest record to the front
		slices.Reverse(r.buf[:r.head])
		slices.Reverse(r.buf[r.head:])
		slices.Reverse(r.buf)
		r.head = 0
	}
	slices.SortStableFunc(r.buf[:r.n], func(a, b traceRec) int { return cmp.Compare(a.at, b.at) })
}

// packetEvent is the JSONL form of a packet-level trace event.
type packetEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Link  string  `json:"link"`
	Flow  int32   `json:"flow"`
	Kind  string  `json:"kind"`
	Size  int64   `json:"size"`
	Seq   int64   `json:"seq"`
	Depth int32   `json:"depth"`
}

// decisionEvent is the JSONL form of an admission decision.
type decisionEvent struct {
	T       float64 `json:"t"`
	Ev      string  `json:"ev"`
	Flow    int32   `json:"flow"`
	Class   int     `json:"class"`
	Attempt int64   `json:"attempt"`
	Frac    float64 `json:"frac"`
}

// arrivalEvent is the JSONL form of a flow arrival. The field set is the
// replay contract: scenario.ParseReplay reads exactly {t, ev, class} and
// ignores everything else, so renaming these keys breaks recorded traces.
type arrivalEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Flow  int32   `json:"flow"`
	Class int     `json:"class"`
}

// epochEvent is the JSONL form of a policy adaptation epoch.
type epochEvent struct {
	T          float64 `json:"t"`
	Ev         string  `json:"ev"`
	Epoch      int32   `json:"epoch"`
	Eps        float64 `json:"eps"`
	RejectRate float64 `json:"reject_rate"`
	LossRate   float64 `json:"loss_rate"`
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
	r := c.trace.slot()
	r.at, r.ev, r.kind, r.link, r.flow, r.depth = now, evEpoch, 0, -1, int32(epoch), 0
	r.a, r.b, r.frac = int64(rejRate*1e6), int64(lossRate*1e6), float32(eps)
}

// Arrival records one offered flow arrival in the event trace. The class
// rides in the wide a field (not the uint8 kind) so class indices above
// 255 survive the round trip. Nil-safe; a no-op unless tracing.
func (c *Collector) Arrival(now sim.Time, flow, class int) {
	if !c.Tracing() {
		return
	}
	r := c.trace.slot()
	r.at, r.ev, r.kind, r.link, r.flow, r.depth = now, evArrival, 0, -1, int32(flow), 0
	r.a, r.b, r.frac = int64(class), 0, 0
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

// traceEvent builds, in f, the JSONL form of one buffered record.
func (c *Collector) traceEvent(f *traceForms, rec traceRec) any {
	if rec.ev == evAdmit || rec.ev == evReject {
		return put(&f.dec, decisionEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow,
			Class: int(rec.b), Attempt: rec.a, Frac: float64(rec.frac),
		})
	}
	if rec.ev == evArrival {
		return put(&f.arr, arrivalEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow, Class: int(rec.a),
		})
	}
	if rec.ev == evEpoch {
		return put(&f.ep, epochEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Epoch: rec.flow, Eps: float64(rec.frac),
			RejectRate: float64(rec.a) / 1e6, LossRate: float64(rec.b) / 1e6,
		})
	}
	kind := "data"
	if int(rec.kind) < len(pktKindNames) {
		kind = pktKindNames[rec.kind]
	}
	return put(&f.pkt, packetEvent{
		T: rec.at.Sec(), Ev: evNames[rec.ev], Link: c.LinkName(int(rec.link)),
		Flow: rec.flow, Kind: kind, Size: rec.a, Seq: rec.b, Depth: rec.depth,
	})
}

// WriteTrace renders the ring as JSONL, one event per line, oldest first
// and in time order (ring.sortByTime). Packet events carry
// link/kind/size/seq/depth, admit/reject events class/attempt/frac.
func (c *Collector) WriteTrace(w io.Writer) error {
	c.trace.sortByTime()
	enc := json.NewEncoder(w)
	var forms traceForms
	for i := 0; i < c.trace.n; i++ {
		if err := enc.Encode(c.traceEvent(&forms, c.trace.at(i))); err != nil {
			return err
		}
	}
	return nil
}
