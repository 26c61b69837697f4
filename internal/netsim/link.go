package netsim

import (
	"fmt"

	"eac/internal/obs"
	"eac/internal/sim"
)

// LinkStats aggregates per-link packet counters since the last Reset.
// Data and probe traffic are tracked separately so that the utilization
// figures exclude probe packets, as in the paper.
//
// Marked counts packets that the shadow queue marked AND that the real
// discipline then accepted: a packet marked but dropped on the same
// arrival counts only in Dropped (and emits only a drop trace event), so
// Marked+Dropped never double-counts an arrival and marking fractions
// condition on packets that actually transit.
type LinkStats struct {
	Arrived   [2]int64 // indexed by Kind
	Dropped   [2]int64
	Marked    [2]int64
	SentBits  [2]int64 // bits put on the wire
	SentPkts  [2]int64
	ResetTime sim.Time
}

// Reset clears the counters and records the new measurement epoch.
func (ls *LinkStats) Reset(now sim.Time) {
	*ls = LinkStats{ResetTime: now}
}

// Utilization returns the fraction of the link's capacity used by data
// packets between the last Reset and now.
func (ls *LinkStats) Utilization(now sim.Time, rateBps float64) float64 {
	dt := (now - ls.ResetTime).Sec()
	if dt <= 0 {
		return 0
	}
	return float64(ls.SentBits[Data]) / (rateBps * dt)
}

// DataLossProb returns the fraction of arriving data packets dropped since
// the last Reset.
func (ls *LinkStats) DataLossProb() float64 {
	if ls.Arrived[Data] == 0 {
		return 0
	}
	return float64(ls.Dropped[Data]) / float64(ls.Arrived[Data])
}

// inflight is a packet propagating across a link.
type inflight struct {
	at sim.Time
	p  *Packet
}

// TxEndReceiver is a Receiver that can additionally take custody of a
// packet at the instant its last bit leaves the upstream link, before the
// propagation delay has elapsed. Boundary links use it to hand packets
// across a shard border while the full propagation delay is still ahead of
// them — that remaining delay is exactly the conservative lookahead the
// sharded executor relies on.
type TxEndReceiver interface {
	Receiver
	// ReceiveTxEnd takes the packet at transmission end. txEnd is the
	// current time, delay the propagation delay still to be served before
	// the packet reaches the next hop (so it is due at txEnd+delay).
	ReceiveTxEnd(txEnd, delay sim.Time, p *Packet)
}

// Recorder is a terminating Receiver that only books some packets: nothing it
// does on their arrival can schedule an event or be read before the run ends.
// A link whose packet has such an endpoint as its last hop calls Record when
// the transmission starts — the arrival time is known then — and the packet
// never enters the pipe, so no delivery event exists for it.
type Recorder interface {
	Receiver
	// Record takes custody of p, due at time at, or returns false and the
	// packet takes the pipe to Receive. It is called in the order the link
	// catches up (sync), up to a transmission time plus the propagation delay
	// ahead of the clock: what it books is complete only once every link has
	// been read at the run's end (StatsAt).
	Record(at sim.Time, p *Packet) bool
}

// Link serializes packets at a fixed rate through a queue discipline and
// delivers them to the packet's next hop after a fixed propagation delay.
// Per Section 3.2 the rate is the bandwidth allocated to the
// admission-controlled class, not necessarily the raw wire speed.
type Link struct {
	Name    string
	RateBps float64
	Delay   sim.Time
	Q       Discipline
	Marker  *VirtualQueue    // optional ECN shadow queue
	Bg      *FluidBackground // optional hybrid-engine fluid background

	// VQDropProbes selects the paper's footnote-14 "virtual dropping"
	// behaviour: when the shadow queue would mark a probe packet, the
	// router drops it instead (no ECN bits needed). Data packets are
	// still marked, never virtually dropped.
	VQDropProbes bool

	// Boundary marks a link whose downstream side may live on another
	// shard. On such a link, a packet whose next hop implements
	// TxEndReceiver is handed over at transmission end — before the
	// propagation delay — instead of entering the pipe; packets bound for
	// ordinary receivers still take the pipe. To hand over on the instant,
	// a boundary link wakes at every txEnd (see arm). False (the default)
	// skips all of that, leaving the serial path untouched.
	Boundary bool

	// OnDrop, if set, observes every dropped packet; the callback owns the
	// packet (typically returning it to a pool). If nil, drops are
	// discarded and left to the garbage collector.
	OnDrop func(now sim.Time, p *Packet)

	// OnArrive, if set, observes every packet arriving at the queue,
	// before any marking or drop decision. Measurement-based admission
	// control uses it as its load tap.
	OnArrive func(now sim.Time, p *Packet)

	// Tap, if set, streams packet-level telemetry (enqueue, dequeue,
	// drop, mark) into the observability layer's event trace. Nil — the
	// default — costs one pointer check per event. Dequeue and handoff
	// events are emitted, late, with their true times (sync): a tap must not
	// wake the link, tracing may not change what is scheduled.
	Tap *obs.LinkTap

	s        *sim.Sim
	nsPerBit float64 // float64(sim.Second) / RateBps, precomputed

	// The server. No event ends a transmission: sync books the packet in
	// service (txBits, txKind: it may be recorded and recycled by then) and
	// starts the next one at txEnd once the clock has passed it, so stats,
	// busy and the queue are read only behind sync (StatsAt, Busy, QueueLen).
	stats  LinkStats
	busy   bool
	txEnd  sim.Time
	txBits int64
	txKind Kind
	txPkt  *Packet       // held until txEnd for hand, else nil
	hand   TxEndReceiver // the packet in service is a boundary hand-off

	pipe sim.Ring[inflight]
	ev   *sim.Event // the one event: a wake-up or the next pipe delivery (see arm)
}

// NewLink builds a link. The queue discipline q must be non-nil.
func NewLink(s *sim.Sim, name string, rateBps float64, delay sim.Time, q Discipline) *Link {
	if rateBps <= 0 {
		panic("netsim: NewLink requires positive rate")
	}
	if q == nil {
		panic("netsim: NewLink requires a queue discipline")
	}
	l := &Link{Name: name, RateBps: rateBps, Delay: delay, Q: q, s: s,
		nsPerBit: float64(sim.Second) / rateBps}
	l.ev = sim.NewStreamEvent(l.onDeliver)
	return l
}

func (l *Link) String() string { return fmt.Sprintf("link(%s)", l.Name) }

// Reset returns the link to its just-constructed idle state for a new run
// on a Reset simulator, retaining the pipe ring's backing array (and the
// discipline's, which keeps its own arrays but is emptied). Packets still
// queued, in transmission, or propagating are handed to recycle (nil
// discards them to the garbage collector). The hooks — Marker, Bg,
// VQDropProbes, Boundary, OnDrop, OnArrive, Tap — are cleared; the owner
// reattaches whatever the new run needs. Callers that change the buffer capacity or
// the discipline kind assign l.Q (or call PriorityPushout.SetCap) after
// Reset returns. Must only be used together with Sim.Reset: the link's
// internal events are Forgotten, which is valid only because the old
// heap was wiped.
func (l *Link) Reset(rateBps float64, delay sim.Time, recycle func(*Packet)) {
	if rateBps <= 0 {
		panic("netsim: Link.Reset requires positive rate")
	}
	if recycle == nil {
		recycle = func(*Packet) {}
	}
	if l.txPkt != nil { // held for hand-off; any other is in the pipe or recorded
		recycle(l.txPkt)
	}
	l.txPkt, l.hand = nil, nil
	for p := l.Q.Dequeue(); p != nil; p = l.Q.Dequeue() {
		recycle(p)
	}
	for l.pipe.Len() > 0 {
		recycle(l.pipe.Pop().p)
	}
	l.RateBps = rateBps
	l.Delay = delay
	l.nsPerBit = float64(sim.Second) / rateBps
	l.busy = false
	l.stats = LinkStats{}
	l.Marker = nil
	l.Bg = nil
	l.VQDropProbes = false
	l.Boundary = false
	l.OnDrop, l.OnArrive, l.Tap = nil, nil, nil
	l.ev.Forget()
}

// Receive implements Receiver: the packet arrives at this link's queue, after
// every transmission that ends by now — at now too, the tie rule.
func (l *Link) Receive(now sim.Time, p *Packet) {
	l.sync(now)
	l.stats.Arrived[p.Kind]++
	if l.OnArrive != nil {
		l.OnArrive(now, p)
	}
	marked := l.Marker != nil && l.Marker.OnArrival(now, p)
	if l.Bg != nil {
		drop, mark := l.Bg.arrival(p.Kind)
		if drop {
			l.drop(now, p)
			return
		}
		marked = marked || mark
	}
	if marked && l.VQDropProbes && p.Kind == Probe {
		l.drop(now, p)
		return
	}
	if dropped := l.Q.Enqueue(now, p); dropped != nil {
		l.drop(now, dropped)
		if dropped == p {
			return
		}
	}
	// Mark accounting happens only after the packet survives the real
	// queue: see the LinkStats doc comment.
	if marked {
		p.Marked = true
		l.stats.Marked[p.Kind]++
		if l.Tap != nil {
			l.Tap.Mark(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
		}
	}
	if l.Tap != nil {
		l.Tap.Enqueue(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	}
	if !l.busy {
		l.startTx(now)
		l.arm()
	}
}

// drop books a dropped packet, traces it, and hands it to OnDrop.
func (l *Link) drop(now sim.Time, p *Packet) {
	l.stats.Dropped[p.Kind]++
	if l.Tap != nil {
		l.Tap.Drop(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	}
	if l.OnDrop != nil {
		l.OnDrop(now, p)
	}
}

// startTx puts the next queued packet into service at time at (now, or the
// txEnd sync is catching up from) and on its way: held for a boundary
// hand-off, booked at a recording last hop, or else into the pipe.
func (l *Link) startTx(at sim.Time) {
	p := l.Q.Dequeue()
	l.txPkt, l.busy, l.hand = nil, p != nil, nil
	if p == nil {
		return
	}
	if l.Tap != nil {
		l.Tap.Dequeue(at, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	}
	l.txBits, l.txKind = int64(p.Bits()), p.Kind
	l.txEnd = at + sim.Time(float64(l.txBits)*l.nsPerBit) // no division on the packet path
	if l.Boundary {
		if l.hand, _ = p.nextHop().(TxEndReceiver); l.hand != nil {
			l.txPkt = p
			return
		}
	}
	due := l.txEnd + l.Delay
	if p.hop == len(p.Route)-1 {
		if r, ok := p.Route[p.hop].(Recorder); ok && r.Record(due, p) {
			return // p is the recorder's: the link may not touch it again
		}
	}
	// Constant propagation delay keeps deliveries FIFO, so one pending
	// event suffices for the whole pipe.
	l.pipe.Push(inflight{at: due, p: p})
}

// sync brings the server up to now. It schedules nothing, and what a Recorder
// books is order-free, so an extra call (a sampler, a metric read) cannot move
// a result.
func (l *Link) sync(now sim.Time) {
	if l.busy && l.txEnd <= now {
		l.finishTx(now)
	}
}

// finishTx books every transmission that has ended by now at its txEnd and
// starts the next packet there: Dequeue takes no time and only Receive, which
// syncs first, changes the queue, so the start sees the queue as of txEnd.
func (l *Link) finishTx(now sim.Time) {
	for l.busy && l.txEnd <= now {
		at := l.txEnd
		l.stats.SentBits[l.txKind] += l.txBits
		l.stats.SentPkts[l.txKind]++
		if p := l.txPkt; p != nil {
			if l.Tap != nil {
				l.Tap.Handoff(at, p.FlowID, uint8(p.Kind), p.Size, p.Seq)
			}
			p.hop++
			l.hand.ReceiveTxEnd(at, l.Delay, p)
		}
		l.startTx(at)
	}
}

// arm keeps the event at the link's next wake-up: the pipe head, and while
// busy no later than txEnd + Delay — a recorded packet leaves the pipe empty,
// and whatever sync starts behind it is due after that bound, never in the
// past. A packet in the pipe is its own bound (head <= txEnd + Delay), so a
// link of recorded traffic alone wakes once per Delay. On a boundary link the
// bound is txEnd: hand-over then is the shard lookahead and cannot wait for
// the next arrival. Only a boundary link ever moves a pending event.
func (l *Link) arm() {
	at, ok := l.txEnd, l.busy
	if !l.Boundary {
		at += l.Delay
	}
	if l.pipe.Len() > 0 && (!ok || l.pipe.Front().at < at) {
		at, ok = l.pipe.Front().at, true
	}
	switch {
	case !ok:
	case !l.ev.Pending():
		l.s.Schedule(l.ev, at)
	case l.ev.When() > at:
		l.s.Reschedule(l.ev, at)
	}
}

func (l *Link) onDeliver(now sim.Time) {
	l.sync(now)
	for l.pipe.Len() > 0 && l.pipe.Front().at <= now {
		l.pipe.Pop().p.Forward(now)
	}
	l.arm()
}

// StatsAt returns the link's counters as of now.
func (l *Link) StatsAt(now sim.Time) *LinkStats { l.sync(now); return &l.stats }

// QueueLen returns the number of packets waiting at now (excluding any in
// service).
func (l *Link) QueueLen(now sim.Time) int { l.sync(now); return l.Q.Len() }

// Busy reports whether a packet is being transmitted at now.
func (l *Link) Busy(now sim.Time) bool { l.sync(now); return l.busy }
