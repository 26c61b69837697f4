// Package sim provides a minimal, fast, single-threaded discrete-event
// simulation engine.
//
// Time is an int64 count of nanoseconds so that the event queue never
// compares floating-point values. Components own reusable Event values and
// reschedule them, so steady-state simulation performs no per-event heap
// allocation.
//
// The pending-event queue is two instances of one 4-ary heap (pq) of
// by-value entries with lazy deletion: each slot carries the (when, seq)
// ordering key next to the event pointer, so sift operations move 24-byte
// entries within one contiguous array and never touch an Event (no
// pointer-chasing cache misses on the hot path), and the four children of a
// node share one or two cache lines. Cancel and Reschedule do no heap
// surgery at all: they bump the event's live sequence number, turning the
// old slot into a tombstone that is discarded when it surfaces at a root. A
// tombstone scheduled for time T is gone by the time the clock passes T, so
// stale entries never accumulate beyond the event horizon.
//
// The timer tier holds ordinary events: OFF periods, flow lifetimes, probe
// deadlines — 10^4 to 10^5 of them at MetroStar scale, mostly far in the
// future. The stream tier holds only heads of monotone streams: an event
// its owner built with InitStream/NewStreamEvent because each firing
// schedules its own near-future successor (a link's pipe delivery, a CBR
// tick), and the head of every Lane. It stays at one entry per link and
// lane, so the events that make up nine tenths of a run sift
// through two or three cache-resident levels and never move a timer.
// Dispatch takes the smaller of the two roots. The (when, seq) key is a
// total order over both tiers, so the tier an event sits in — like heap
// geometry — can never affect simulation results (pinned by the
// byte-identity tests and TestStreamHintIsOnlyAHint).
//
// Periodic ticks — a third of all events on the paper's scenarios — are a
// heap's worst case: each is rescheduled at now + constant and sinks below
// every other source's tick. They go through monotone lanes instead (see
// Lane): FIFO rings whose head alone occupies a stream-tier slot.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Sec converts t to floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Sec()) }

// Event is a schedulable callback. An Event value may be scheduled at most
// once at a time; it can be rescheduled from within its own callback.
// Events are intended to be embedded in (or owned by) simulation components
// and reused for their lifetime.
type Event struct {
	fn      func(now Time)
	when    Time
	seq     uint64 // seq of the live entry; FIFO tie-break at equal times
	pending bool
	// lane is the Lane holding the live entry (0 = none). It and stream are
	// bytes in the padding after pending, which keeps Event at 32 bytes; a
	// pointer would push it into the 48-byte size class, which alone cost
	// 7 % peak RSS on a figure-2 grid cell (TestEventSize pins this).
	lane Lane
	// stream marks a stream head: Schedule puts it in the stream tier. Set
	// at construction and never cleared; a hint only (see the package doc).
	stream bool
	// arg is the owner's argument (SetArg), in the last of the padding.
	arg uint32
}

// NewEvent returns an event that invokes fn when it fires.
func NewEvent(fn func(now Time)) *Event {
	return &Event{fn: fn}
}

// Init sets the callback of an event embedded by value in its owner, in
// place of a NewEvent allocation. Call it once, before the first Schedule.
func (e *Event) Init(fn func(now Time)) { e.fn = fn }

// NewStreamEvent and InitStream are NewEvent and Init for a stream head: an
// event whose firing schedules its own near-future successor, so that it is
// always among the next few to fire. It is queued in the small stream tier.
func NewStreamEvent(fn func(now Time)) *Event { return &Event{fn: fn, stream: true} }

// InitStream is Init for a stream head (see NewStreamEvent).
func (e *Event) InitStream(fn func(now Time)) { e.fn, e.stream = fn, true }

// SetArg stores a small argument with the event — typically the owner's
// index in a table — that Sim.Arg returns while the event's callback runs.
// Events of many owners can then share one callback instead of holding a
// closure each.
func (e *Event) SetArg(a uint32) { e.arg = a }

// Pending reports whether the event is currently scheduled.
func (e *Event) Pending() bool { return e.pending }

// Forget clears the event's pending flag without touching any simulator.
// It exists for one situation only: an event that was still scheduled when
// its owning Sim was Reset (the heap was wiped wholesale, so the event's
// slot is gone but its flag is stale). Components that keep events across
// Sim.Reset — the run-state reuse path in scenario — call Forget before
// rescheduling them. Calling it on an event whose Sim was NOT reset
// desynchronizes the heap's live-entry accounting; use Cancel there. The
// lane id goes too: after Reset it would name whatever lane took that slot
// in the next run. The stream flag, a property of the owner, stays.
func (e *Event) Forget() { e.pending, e.lane = false, 0 }

// When returns the time the event is scheduled for. Only meaningful while
// Pending.
func (e *Event) When() Time { return e.when }

// entry is one heap slot. The (when, seq) key is duplicated out of the
// Event so ordering comparisons touch only the heap's contiguous backing
// array. An entry is live while its seq matches e.seq and e is pending;
// otherwise it is a tombstone left behind by Cancel or Reschedule.
type entry struct {
	when Time
	seq  uint64
	e    *Event
}

// before is the heap order: by time, then by scheduling order, which makes
// the key a total order (seq is unique) and dispatch deterministic.
func (a entry) before(b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// live reports whether the slot still represents a scheduled firing.
func (ent entry) live() bool {
	return ent.e.pending && ent.e.seq == ent.seq
}

// heapArity is the fan-out of the event heap. Four keeps a node's children
// within one or two cache lines of the entry array while halving the sift
// depth of a binary heap.
const heapArity = 4

// HeapInitCap is the event heap's initial capacity. It exists for the
// byte-identity tests, which shrink it to force repeated growth and prove
// heap geometry cannot affect simulation output. Do not change it while
// simulations are running.
var HeapInitCap = 1024

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    Time
	seq    uint64
	timer  pq  // ordinary events
	stream pq  // heads of monotone streams: stream events and lane heads
	nLive  int // scheduled (non-tombstone) entries, both tiers and lane rings
	nDead  int // tombstones still buried in the two tiers
	halted bool
	arg    uint32 // of the event being dispatched
	ctr    Counters

	lanes    []lane // rings are retained across Reset
	nLanes   int    // lanes[:nLanes] are assigned this run
	laneKeys [maxLanes]Time
}

// Counters is the simulator's always-on ledger of queue work for the
// current run (Reset zeroes it): plain integer increments on paths that
// already write the Sim.
type Counters struct {
	Executed        uint64 `json:"executed"`          // events dispatched
	HeapSchedules   uint64 `json:"heap_schedules"`    // Schedule/ScheduleLane calls that inserted into a tier
	StreamSchedules uint64 `json:"stream_schedules"`  // those of them that went to the stream tier
	LaneAppends     uint64 `json:"lane_appends"`      // ScheduleLane calls absorbed by a lane ring
	Promotions      uint64 `json:"promotions"`        // lane followers moved into the stream tier
	Scrubbed        uint64 `json:"scrubbed"`          // tombstones discarded, tiers and rings
	HeapHighWater   int    `json:"heap_high_water"`   // the two tiers' high-water marks, summed
	StreamHighWater int    `json:"stream_high_water"` // most stream-tier slots ever occupied at once
}

// Counters returns the run's ledger so far.
func (s *Sim) Counters() Counters {
	c := s.ctr
	c.HeapHighWater, c.StreamHighWater = s.timer.high+s.stream.high, s.stream.high
	return c
}

// New returns an empty simulator at time zero.
func New() *Sim {
	return &Sim{
		timer:  pq{h: make([]entry, 0, HeapInitCap)},
		stream: pq{h: make([]entry, 0, min(HeapInitCap, maxLanes))},
	}
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Arg returns the argument (Event.SetArg) of the event whose callback is
// running.
func (s *Sim) Arg() uint32 { return s.arg }

// Reset returns the simulator to an empty queue at time zero, retaining
// the heap's and the lane rings' backing arrays so a subsequent run of
// similar event density performs no growth at all. The sequence counter is
// also reset, so a replayed workload observes identical FIFO tie-breaking
// and therefore identical dispatch order (the per-worker run-state reuse
// path depends on this). Lane handles are void after Reset: the next run
// assigns the table afresh. Events that were still pending are NOT
// notified: their slots vanish with the heap, and an owner that reuses
// such an event across Reset must call Event.Forget before rescheduling it.
func (s *Sim) Reset() {
	s.timer.reset()
	s.stream.reset()
	for i := range s.lanes[:s.nLanes] {
		s.lanes[i].reset()
	}
	s.nLanes = 0
	s.now, s.seq, s.nLive, s.nDead = 0, 0, 0, 0
	s.halted = false
	s.ctr = Counters{}
}

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.ctr.Executed }

// Schedule arranges for e to fire at absolute time at. It panics if e is
// already pending (use Reschedule) or if at precedes the current time.
func (s *Sim) Schedule(e *Event, at Time) { s.schedule(e, at, e.stream) }

// schedule is Schedule into the named tier.
func (s *Sim) schedule(e *Event, at Time, stream bool) {
	if e.pending {
		panic("sim: Schedule of pending event")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Schedule into the past: at=%v now=%v", at, s.now))
	}
	e.when = at
	e.seq = s.seq
	e.pending = true
	s.seq++
	s.nLive++
	s.ctr.HeapSchedules++
	ent := entry{when: at, seq: e.seq, e: e}
	if stream {
		s.ctr.StreamSchedules++
		s.stream.push(ent)
	} else {
		s.timer.push(ent)
	}
}

// Reschedule moves a pending event to a new time, or schedules it if it is
// not pending.
func (s *Sim) Reschedule(e *Event, at Time) {
	s.Cancel(e)
	s.Schedule(e, at)
}

// Cancel removes a pending event from the queue. Cancelling a non-pending
// event is a no-op. Cancellation is O(1): the heap slot becomes a
// tombstone discarded when it reaches the root.
func (s *Sim) Cancel(e *Event) {
	if e.pending {
		e.pending = false
		s.nLive--
		if e.lane != 0 {
			s.cancelLane(e)
		} else {
			s.nDead++
		}
	}
}

// Call schedules a freshly allocated one-shot event. It is intended for
// infrequent control-plane work (flow arrivals, probe deadlines), not the
// per-packet fast path.
func (s *Sim) Call(at Time, fn func(now Time)) *Event {
	e := NewEvent(fn)
	s.Schedule(e, at)
	return e
}

// CallIn schedules fn to run after delay d.
func (s *Sim) CallIn(d Time, fn func(now Time)) *Event { return s.Call(s.now+d, fn) }

// Halt stops Run before the next event is dispatched.
func (s *Sim) Halt() { s.halted = true }

// Peek returns the timestamp of the earliest pending event, without
// dispatching it. ok is false when no event is pending. Callers batching
// work per timestamp (or deciding whether a Run call would do anything)
// use it to avoid a dispatch round trip.
func (s *Sim) Peek() (when Time, ok bool) {
	s.timer.fill()
	s.stream.fill()
	s.scrub()
	q := s.next()
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].when, true
}

// next returns the tier whose root is the earliest pending event: an empty
// tier when nothing is pending. The caller has scrubbed, and neither tier
// has an open hole.
func (s *Sim) next() *pq {
	q := &s.timer
	if st := s.stream.h; len(st) > 0 && (len(q.h) == 0 || st[0].before(q.h[0])) {
		q = &s.stream
	}
	return q
}

// Run executes events in timestamp order until the queue is empty or the
// next event is later than until. The clock is left at the time of the last
// executed event (or at until if no event at/before until remained, so that
// subsequent Run calls may continue).
func (s *Sim) Run(until Time) {
	if s.run(until) || (!s.halted && s.now < until) {
		s.now = until
	}
}

// RunAll executes events until the queue is empty.
func (s *Sim) RunAll() { s.run(math.MaxInt64) }

// run is the dispatch loop; it reports whether it stopped at an event
// later than until (false: the queue drained or Halt was called).
//
// Events sharing a timestamp are bulk-drained: the bound check and clock
// update happen once per distinct timestamp, not once per event, which
// matters for the multi-hop scenarios where a burst's arrivals land on the
// same nanosecond.
func (s *Sim) run(until Time) (beyond bool) {
	s.halted = false
	for !s.halted {
		s.scrub()
		q := s.next()
		if len(q.h) == 0 {
			break
		}
		when := q.h[0].when
		if when > until {
			return true
		}
		s.now = when
		for {
			e := q.h[0].e // live: scrub ran
			e.pending = false
			s.nLive--
			s.ctr.Executed++
			// Leave the consumed root in place as its tier's hole: if the
			// callback schedules into that tier (a stream head's successor,
			// overwhelmingly), push reuses the slot with one replace-root
			// sift instead of a full leaf-sink pop plus a push. A lane head's
			// follower takes it right away.
			q.hole = true
			if e.lane != 0 {
				l := &s.lanes[e.lane-1]
				e.lane = 0
				s.promote(l)
			}
			s.arg = e.arg
			e.fn(when)
			q.fill()
			if s.halted {
				break
			}
			s.scrub()
			if q = s.next(); len(q.h) == 0 || q.h[0].when != when {
				break
			}
		}
	}
	return false
}

// Len returns the number of pending events.
func (s *Sim) Len() int { return s.nLive }

// scrub discards tombstones from the two roots so that each, if its tier is
// non-empty, is that tier's earliest live event. This is the only place lazy
// deletion pays its debt, and each tombstone is paid for exactly once.
// While no tombstones are buried (nDead == 0, the common case — Cancel is
// control-plane, not per-packet), the dispatch loop pays a single integer
// compare here and never dereferences an Event to test liveness.
func (s *Sim) scrub() {
	if s.nDead == 0 {
		return
	}
	s.scrubSlow()
}

func (s *Sim) scrubSlow() {
	for _, q := range [...]*pq{&s.timer, &s.stream} {
		for s.nDead > 0 && len(q.h) > 0 && !q.h[0].live() {
			q.popRoot()
			s.nDead--
			s.ctr.Scrubbed++
		}
	}
}

// pq is one tier of the event queue: a 4-ary min-heap of entries under
// entry.before.
type pq struct {
	h    []entry
	hole bool // h[0] is a consumed entry awaiting removal or reuse
	high int  // most slots ever occupied at once
}

// reset empties the tier, keeping its capacity.
func (q *pq) reset() {
	clear(q.h) // drop Event pointers so dead runs are collectable
	*q = pq{h: q.h[:0]}
}

// push inserts an entry.
func (q *pq) push(ent entry) {
	if q.hole {
		// The dispatch loop left the just-consumed root in place. Nearly
		// every stream event reschedules a near-future successor (a pipe
		// delivery, a lane's follower) from inside its own callback, so
		// instead of paying a full leaf-sink pop plus a push, reuse the root
		// slot: one replace-root siftDown that terminates almost immediately
		// for near-minimum times, and never touches the heap's tail. Heap
		// arrangement cannot affect dispatch order — the (when, seq) key is
		// a total order — so this is behaviour-neutral.
		q.hole = false
		q.h[0] = ent
		q.siftDown(0)
		return
	}
	i := len(q.h)
	q.h = append(q.h, ent)
	if i >= q.high {
		q.high = i + 1
	}
	q.siftUp(i)
}

// fill closes the hole the dispatch loop left, if nothing reused it.
func (q *pq) fill() {
	if q.hole {
		q.hole = false
		q.popRoot()
	}
}

// popRoot removes the root entry: move the last entry into the hole and
// sift it down. No Event field is touched — the caller accounts for
// liveness.
func (q *pq) popRoot() {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = entry{}
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		q.siftDown(0)
	}
}

// siftUp moves the entry at index i toward the root. The moving entry is
// held aside and written once at its final slot (hole sift): one 24-byte
// entry copy per level, no Event access.
func (q *pq) siftUp(i int) {
	h := q.h
	ent := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ent.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

// siftDown moves the entry at index i toward the leaves. The four children
// of a node are contiguous entries, so the min-child scan stays within one
// or two cache lines; the full-node case is unrolled.
func (q *pq) siftDown(i int) {
	h := q.h
	n := len(h)
	ent := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		small := c
		if c+heapArity <= n { // full node: unrolled four-child scan
			if h[c+1].before(h[small]) {
				small = c + 1
			}
			if h[c+2].before(h[small]) {
				small = c + 2
			}
			if h[c+3].before(h[small]) {
				small = c + 3
			}
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].before(h[small]) {
					small = j
				}
			}
		}
		if !h[small].before(ent) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = ent
}
