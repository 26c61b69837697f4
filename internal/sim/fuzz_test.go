package sim_test

import (
	"sort"
	"testing"

	"eac/internal/conformance/invariants"
	"eac/internal/sim"
)

// refQueue is the reference the event queue is checked against: pending
// firings in a plain slice, dispatched by sorting on (when, seq) with seq
// drawn from one counter in scheduling order. It mirrors Sim's contract
// (Schedule, Cancel, Run's clock rule, Reset) and nothing of its structure.
type refQueue struct {
	now     sim.Time
	seq     uint64
	pending []refEntry
}

type refEntry struct {
	when sim.Time
	seq  uint64
	id   int
}

func (q *refQueue) schedule(id int, at sim.Time) {
	q.pending = append(q.pending, refEntry{at, q.seq, id})
	q.seq++
}

func (q *refQueue) cancel(id int) {
	for i, p := range q.pending {
		if p.id == id {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

func (q *refQueue) isPending(id int) bool {
	for _, p := range q.pending {
		if p.id == id {
			return true
		}
	}
	return false
}

// next returns the earliest pending firing.
func (q *refQueue) next() (refEntry, bool) {
	if len(q.pending) == 0 {
		return refEntry{}, false
	}
	sort.Slice(q.pending, func(i, j int) bool {
		a, b := q.pending[i], q.pending[j]
		return a.when < b.when || (a.when == b.when && a.seq < b.seq)
	})
	return q.pending[0], true
}

// run dispatches through fire every firing due at or before until.
func (q *refQueue) run(until sim.Time, fire func(id int, now sim.Time)) {
	for {
		p, ok := q.next()
		if !ok || p.when > until {
			break
		}
		q.pending = q.pending[1:]
		q.now = p.when
		fire(p.id, p.when)
	}
	if q.now < until {
		q.now = until
	}
}

type firing struct {
	id int
	at sim.Time
}

// FuzzEventHeap drives the event queue — both tiers and the monotone lanes
// — with arbitrary interleavings of Schedule, ScheduleLane (at the lane's
// interval and at arbitrary, mostly non-monotone times), Cancel (of
// tier-resident lane heads and ring-resident followers alike), Reschedule
// within, across and out of lanes, Reset and partial Run calls, with events
// that tick on through their lane from inside their callbacks. The
// odd-numbered half of the events are stream events, so every operation
// lands on either tier and on the two mixed. Every step is mirrored on
// refQueue, which knows neither tiers nor lanes; the dispatch logs, clocks,
// queue lengths and Peek results must agree exactly, which is the claim
// that tiers and lanes leave the (when, seq) total order untouched. The
// first input byte picks the lane ring capacity.
//
// Run with: go test ./internal/sim -fuzz FuzzEventHeap
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 200, 0, 5})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 10, 2, 10, 2, 10, 1, 0, 3, 255})
	// Three ticks on lane 0, cancel the ring-resident middle one, then the
	// heap-resident head, run.
	f.Add([]byte{32, 6, 33, 6, 34, 6, 9, 0, 8, 0, 24, 255})
	// Ticks on both lanes, move one across, reset mid-flight, go again.
	f.Add([]byte{1, 32, 6, 33, 7, 34, 6, 49, 7, 24, 9, 56, 0, 32, 6, 35, 7, 24, 40})
	// Non-monotone lane requests and a plain Reschedule of a lane event.
	f.Add([]byte{32, 6, 41, 2, 42, 200, 43, 4, 16, 1, 17, 90, 24, 100})
	// testdata/fuzz/FuzzEventHeap holds the two-tier seeds: cancel the stream
	// event that is its tier's root; Reschedule that root far into the
	// future, past timers; Reset with both tiers and both lanes loaded; and a
	// stream event that was a lane head at Reset (Forget clears the lane and
	// keeps the flag, which the ledger check under "schedule" observes).
	f.Fuzz(func(t *testing.T, data []byte) {
		const nEvents = 8
		period := [2]sim.Time{10, 25}

		cap0 := sim.RingInitCap
		defer func() { sim.RingInitCap = cap0 }()
		if len(data) > 0 && data[0]&1 == 1 {
			sim.RingInitCap = 1
		}

		s := sim.New()
		ref := &refQueue{}
		var c invariants.Checker
		clock := c.Clock("dispatch")
		var lanes [2]sim.Lane
		resolve := func() { lanes = [2]sim.Lane{s.Lane(period[0]), s.Lane(period[1])} }
		resolve()

		// An event that fires with ticks left reschedules itself through
		// lanes[laneOf[i]]; each side counts down its own copy.
		var ticks, refTicks, laneOf [nEvents]int
		var got, want []firing
		events := make([]*sim.Event, nEvents)
		for i := 0; i < nEvents; i++ {
			i := i
			newEvent := sim.NewEvent
			if i%2 == 1 {
				newEvent = sim.NewStreamEvent
			}
			events[i] = newEvent(func(now sim.Time) {
				clock.Observe(now)
				got = append(got, firing{i, now})
				if ticks[i] > 0 {
					ticks[i]--
					s.ScheduleLane(lanes[laneOf[i]], events[i], now+period[laneOf[i]])
				}
			})
		}
		setTicks := func(id, n int) { ticks[id], refTicks[id] = n, n }
		run := func(until sim.Time) {
			s.Run(until)
			ref.run(until, func(id int, now sim.Time) {
				want = append(want, firing{id, now})
				if refTicks[id] > 0 {
					refTicks[id]--
					ref.schedule(id, now+period[laneOf[id]])
				}
			})
		}

		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k], sim.Time(data[k+1])
			id := int(op) % nEvents
			e := events[id]
			ln := int(arg) & 1
			switch (op / 8) % 8 {
			case 0: // schedule (skip if pending: Schedule panics by contract)
				if !e.Pending() {
					setTicks(id, 0)
					before := s.Counters().StreamSchedules
					s.Schedule(e, s.Now()+arg)
					ref.schedule(id, ref.now+arg)
					// The flag decides the tier, and survives Reset + Forget.
					if n := s.Counters().StreamSchedules - before; n != uint64(id%2) {
						t.Fatalf("op %d: Schedule of event %d booked %d stream schedules", k/2, id, n)
					}
				}
			case 1: // cancel
				s.Cancel(e)
				ref.cancel(id)
			case 2: // reschedule onto the heap, wherever the event was
				setTicks(id, 0)
				s.Reschedule(e, s.Now()+arg)
				ref.cancel(id)
				ref.schedule(id, ref.now+arg)
			case 3: // partial run
				run(s.Now() + arg)
			case 4: // start ticking on a lane
				if !e.Pending() {
					setTicks(id, int(arg>>1)&3)
					laneOf[id] = ln
					s.ScheduleLane(lanes[ln], e, s.Now()+period[ln])
					ref.schedule(id, ref.now+period[ln])
				}
			case 5: // lane request at an arbitrary time: mostly falls through
				if !e.Pending() {
					setTicks(id, 0)
					laneOf[id] = ln
					s.ScheduleLane(lanes[ln], e, s.Now()+arg)
					ref.schedule(id, ref.now+arg)
				}
			case 6: // reschedule across lanes
				setTicks(id, int(arg>>1)&3)
				laneOf[id] = ln
				s.Cancel(e)
				s.ScheduleLane(lanes[ln], e, s.Now()+period[ln])
				ref.cancel(id)
				ref.schedule(id, ref.now+period[ln])
			case 7: // reset with events in flight, as Workspace reuse does
				if arg >= 32 {
					run(s.Now() + arg)
					break
				}
				s.Reset()
				for _, ev := range events {
					ev.Forget()
				}
				*ref = refQueue{}
				clock = c.Clock("dispatch") // the clock restarts too
				resolve()
			}
			if s.Len() != len(ref.pending) {
				t.Fatalf("op %d: Len() = %d, reference holds %d", k/2, s.Len(), len(ref.pending))
			}
			if s.Now() != ref.now {
				t.Fatalf("op %d: Now() = %v, reference at %v", k/2, s.Now(), ref.now)
			}
			when, ok := s.Peek()
			if p, rok := ref.next(); ok != rok || (ok && when != p.when) {
				t.Fatalf("op %d: Peek() = %v,%v, reference %v,%v", k/2, when, ok, p.when, rok)
			}
			if e.Pending() != ref.isPending(id) {
				t.Fatalf("op %d: event %d Pending() = %v, reference %v", k/2, id, e.Pending(), !e.Pending())
			}
		}
		run(sim.Time(1) << 40)

		if s.Len() != 0 {
			c.Violationf("queue not drained: %d pending after the final run", s.Len())
		}
		if len(got) != len(want) {
			c.Violationf("dispatched %d firings, reference %d", len(got), len(want))
		}
		for i := range got {
			if i < len(want) && got[i] != want[i] {
				c.Violationf("firing %d: event %d at %v, reference event %d at %v",
					i, got[i].id, got[i].at, want[i].id, want[i].at)
				break
			}
		}
		for i := range events {
			if events[i].Pending() {
				c.Violationf("event %d still pending after the final run", i)
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
