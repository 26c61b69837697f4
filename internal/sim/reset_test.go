package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestResetReplayIdentical pins the run-state reuse contract: after Reset,
// replaying the same workload on the same Sim dispatches the exact same
// (time, label) sequence a fresh Sim produces — including FIFO tie-breaks,
// which depend on the sequence counter being rewound.
func TestResetReplayIdentical(t *testing.T) {
	workload := func(s *Sim) []Time {
		var fired []Time
		// Two self-rescheduling events that collide on shared timestamps,
		// plus a cancelled one to leave tombstones behind.
		var a, b *Event
		a = NewEvent(func(now Time) {
			fired = append(fired, now)
			if now < 40 {
				s.Schedule(a, now+4)
			}
		})
		b = NewEvent(func(now Time) {
			fired = append(fired, now+1000) // tag b's firings
			if now < 40 {
				s.Schedule(b, now+8)
			}
		})
		c := NewEvent(func(now Time) { t.Fatal("cancelled event fired") })
		s.Schedule(a, 4)
		s.Schedule(b, 8)
		s.Schedule(c, 12)
		s.Cancel(c)
		s.Run(100)
		return fired
	}

	fresh := workload(New())

	s := New()
	first := workload(s)
	if s.Now() != 100 {
		t.Fatalf("clock = %v before Reset", s.Now())
	}
	s.Reset()
	if s.Now() != 0 || s.Len() != 0 || s.Executed() != 0 {
		t.Fatalf("Reset left now=%v len=%d executed=%d", s.Now(), s.Len(), s.Executed())
	}
	replay := workload(s)

	if !reflect.DeepEqual(first, fresh) {
		t.Fatalf("first run differs from fresh baseline")
	}
	if !reflect.DeepEqual(replay, fresh) {
		t.Fatalf("replay after Reset diverged:\nfresh:  %v\nreplay: %v", fresh, replay)
	}
}

// TestResetRetainsHeapCapacity checks Reset keeps both tiers' grown backing
// arrays (the point of reusing the simulator between grid cells).
func TestResetRetainsHeapCapacity(t *testing.T) {
	old := HeapInitCap
	HeapInitCap = 1
	defer func() { HeapInitCap = old }()
	s := New()
	for i := 0; i < 1000; i++ {
		s.Schedule(NewEvent(func(Time) {}), Time(i))
		s.Schedule(NewStreamEvent(func(Time) {}), Time(i))
	}
	for name, q := range map[string]*pq{"timer": &s.timer, "stream": &s.stream} {
		grown := cap(q.h)
		if grown < 1000 {
			t.Fatalf("%s tier did not grow: cap %d", name, grown)
		}
		s.Reset()
		if cap(q.h) != grown || len(q.h) != 0 || q.hole || q.high != 0 {
			t.Fatalf("Reset left the %s tier at cap %d (want %d), len %d, hole %v, high %d",
				name, cap(q.h), grown, len(q.h), q.hole, q.high)
		}
		// No stale Event pointers survive (collectability).
		for i, ent := range q.h[:cap(q.h)] {
			if ent.e != nil {
				t.Fatalf("%s slot %d retains an event pointer after Reset", name, i)
			}
		}
	}
}

// TestForgetAllowsRescheduleAfterReset covers the documented Forget use:
// an event pending at Reset time is reusable after Forget — and still a
// stream event if it was one, the flag being its owner's, not the run's.
func TestForgetAllowsRescheduleAfterReset(t *testing.T) {
	for _, newEvent := range []func(func(Time)) *Event{NewEvent, NewStreamEvent} {
		s := New()
		fired := 0
		e := newEvent(func(Time) { fired++ })
		stream := e.stream
		s.Schedule(e, 50)
		s.Run(10) // e still pending
		s.Reset()
		if !e.Pending() {
			t.Fatal("test setup: event should report stale pending")
		}
		e.Forget()
		s.Schedule(e, 5)
		s.Run(10)
		if fired != 1 || e.stream != stream {
			t.Fatalf("fired %d times, want 1; stream flag %v, was %v", fired, e.stream, stream)
		}
	}
}

// TestEventSize pins Event at 32 bytes. The lane id is a uint8 in the
// padding after pending for this reason: a lane pointer made Event 40 bytes
// (48-byte size class), and since a figure-2 grid cell allocates less than
// one GC cycle's worth, that alone raised the grid's peak RSS by 7 %
// against a 10 % bound (ISSUE 12).
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("sizeof(Event) = %d, want 32", n)
	}
}

// TestEventArg: events sharing one callback are told apart by their
// argument, on every queue an event can wait in (timer tier, stream tier,
// lane ring), and a callback still reads its own argument after it has
// scheduled other events.
func TestEventArg(t *testing.T) {
	s := New()
	var got []uint32
	var evs [6]Event
	fn := func(now Time) {
		if now < 20 { // re-arm under a new argument, on a lane
			e := &evs[s.Arg()]
			e.SetArg(s.Arg() + 10)
			s.ScheduleLane(s.Lane(20), e, now+20)
		}
		got = append(got, s.Arg())
	}
	for i := range evs {
		if evs[i].Init(fn); i%2 == 1 {
			evs[i].InitStream(fn)
		}
		evs[i].SetArg(uint32(i))
		s.Schedule(&evs[i], Time(len(evs)-i))
	}
	s.RunAll()
	want := []uint32{5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10}
	if len(got) != len(want) {
		t.Fatalf("args seen %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("args seen %v, want %v", got, want)
		}
	}
}

// TestResetWithLoadedLane resets a simulator whose lane still holds a head
// and ring followers, then replays: the replay must match a fresh run, the
// ring must be empty (no stale head flag, tail or Event pointer) yet keep
// its capacity, and a Forget-ed event must not name its old lane.
func TestResetWithLoadedLane(t *testing.T) {
	type tick struct {
		ev Event
		id int
	}
	workload := func(s *Sim, until Time) []int {
		var fired []int
		ln := s.Lane(7)
		ticks := make([]*tick, 5)
		for i := range ticks {
			tk := &tick{id: i}
			tk.ev.Init(func(now Time) {
				fired = append(fired, tk.id)
				s.ScheduleLane(ln, &tk.ev, now+7)
			})
			ticks[i] = tk
			s.ScheduleLane(ln, &tk.ev, Time(i)+7)
		}
		s.Cancel(&ticks[2].ev) // a ring tombstone to leave behind
		s.Run(until)
		return fired
	}

	fresh := workload(New(), 50)

	s := New()
	workload(s, 20) // stop with the lane loaded
	l := &s.lanes[0]
	if !l.head || l.ring.Len() == 0 {
		t.Fatalf("test setup: lane not loaded (head=%v n=%d)", l.head, l.ring.Len())
	}
	grown := len(l.ring.buf)
	stale := l.ring.Front().e
	s.Reset()
	if l.head || l.ring.Len() != 0 || l.ring.head != 0 || l.dead != 0 || l.tail != 0 || len(l.ring.buf) != grown {
		t.Fatalf("Reset left lane state behind: %+v", *l)
	}
	for i, ent := range l.ring.buf {
		if ent.e != nil {
			t.Fatalf("lane slot %d retains an event pointer after Reset", i)
		}
	}
	if s.Len() != 0 || s.Counters() != (Counters{}) {
		t.Fatalf("Reset left len=%d counters=%+v", s.Len(), s.Counters())
	}
	if stale.Forget(); stale.lane != 0 || stale.pending {
		t.Fatalf("Forget left lane=%d pending=%v", stale.lane, stale.pending)
	}
	// A different interval takes the first slot now; the old handle's
	// interval must not leak into it.
	if got := s.Lane(99); got != 1 {
		t.Fatalf("first lane after Reset = %d, want 1", got)
	}
	s.Reset()
	if replay := workload(s, 50); !reflect.DeepEqual(replay, fresh) {
		t.Fatalf("replay after Reset diverged:\nfresh:  %v\nreplay: %v", fresh, replay)
	}
}

// TestLaneCounters checks the ledger on a workload whose split is known:
// four sources ticking on one lane put one head in the heap and append
// every other reschedule to the ring.
func TestLaneCounters(t *testing.T) {
	s := New()
	ln := s.Lane(10)
	evs := make([]Event, 4)
	for i := range evs {
		e := &evs[i]
		e.Init(func(now Time) { s.ScheduleLane(ln, e, now+10) })
		s.ScheduleLane(ln, e, Time(i)+10)
	}
	x := NewEvent(func(Time) {})
	s.Schedule(x, 5)
	s.Cancel(x)
	s.Run(100)
	c := s.Counters()
	// 0..3 fire at 10+i, 20+i, ... ≤ 100: 10,20,..,100 → 10; 11..91 → 9 each.
	if want := uint64(10 + 3*9); c.Executed != want || c.Executed != s.Executed() {
		t.Fatalf("Executed = %d, want %d", c.Executed, want)
	}
	// Heap inserts: the first lane head and x. Everything else is a ring
	// append promoted exactly once, except the four still waiting.
	if c.HeapSchedules != 2 || c.LaneAppends != 3+c.Executed || c.Promotions != c.LaneAppends-3 {
		t.Fatalf("ledger does not balance: %+v", c)
	}
	if c.Scrubbed != 1 || c.HeapHighWater != 2 {
		t.Fatalf("scrubbed %d (want 1), heap high-water %d (want 2)", c.Scrubbed, c.HeapHighWater)
	}
}
