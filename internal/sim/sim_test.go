package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).Sec(); got != 2.5 {
		t.Fatalf("Sec() = %v, want 2.5", got)
	}
	if s := Second.String(); s != "1.000000s" {
		t.Fatalf("String() = %q", s)
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []int
	s.Call(3*Second, func(Time) { got = append(got, 3) })
	s.Call(1*Second, func(Time) { got = append(got, 1) })
	s.Call(2*Second, func(Time) { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v", got)
	}
	if s.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Call(Second, func(Time) { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events out of scheduling order: %v", got)
		}
	}
}

func TestRunUntilStopsAndResumesClock(t *testing.T) {
	s := New()
	fired := 0
	s.Call(5*Second, func(Time) { fired++ })
	s.Run(3 * Second)
	if fired != 0 {
		t.Fatal("event fired before its time")
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	s.Run(10 * Second)
	if fired != 1 {
		t.Fatal("event did not fire on resumed run")
	}
	if s.Now() != 10*Second {
		t.Fatalf("clock = %v, want 10s (idle advance)", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Call(Second, func(Time) { fired = true })
	if !e.Pending() {
		t.Fatal("scheduled event not pending")
	}
	s.Cancel(e)
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	s.Cancel(e) // double-cancel is a no-op
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestReschedule(t *testing.T) {
	s := New()
	var at Time
	e := NewEvent(func(now Time) { at = now })
	s.Schedule(e, 5*Second)
	s.Reschedule(e, 2*Second)
	s.RunAll()
	if at != 2*Second {
		t.Fatalf("event fired at %v, want 2s", at)
	}
	// Reschedule of non-pending event acts like Schedule.
	s.Reschedule(e, 7*Second)
	s.RunAll()
	if at != 7*Second {
		t.Fatalf("event fired at %v, want 7s", at)
	}
}

func TestSchedulePanicsOnPending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling a pending event")
		}
	}()
	s := New()
	e := NewEvent(func(Time) {})
	s.Schedule(e, Second)
	s.Schedule(e, 2*Second)
}

func TestSchedulePanicsOnPast(t *testing.T) {
	s := New()
	s.Call(2*Second, func(Time) {})
	s.Run(2 * Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	s.Call(Second, func(Time) {})
}

func TestHalt(t *testing.T) {
	s := New()
	n := 0
	for i := 1; i <= 5; i++ {
		s.Call(Time(i)*Second, func(Time) {
			n++
			if n == 2 {
				s.Halt()
			}
		})
	}
	s.RunAll()
	if n != 2 {
		t.Fatalf("executed %d events after halt, want 2", n)
	}
	// Remaining events still pending.
	if s.Len() != 3 {
		t.Fatalf("pending = %d, want 3", s.Len())
	}
}

func TestEventReschedulesItself(t *testing.T) {
	s := New()
	count := 0
	var e *Event
	e = NewEvent(func(now Time) {
		count++
		if count < 5 {
			s.Schedule(e, now+Second)
		}
	})
	s.Schedule(e, Second)
	s.RunAll()
	if count != 5 {
		t.Fatalf("self-rescheduling event ran %d times, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Call(Time(i+1), func(Time) {})
	}
	s.RunAll()
	if s.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", s.Executed())
	}
}

// TestHeapOrderProperty drives the scheduler with random schedule/cancel
// operations and verifies events always fire in nondecreasing time order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var fireTimes []Time
		var pending []*Event
		record := func(now Time) { fireTimes = append(fireTimes, now) }
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				e := NewEvent(record)
				s.Schedule(e, s.Now()+Time(rng.Int63n(int64(10*Second))))
				pending = append(pending, e)
			case 2:
				if len(pending) > 0 {
					i := rng.Intn(len(pending))
					s.Cancel(pending[i])
					pending = append(pending[:i], pending[i+1:]...)
				}
			}
		}
		s.RunAll()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return len(fireTimes) == len(pending)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedScheduleCancelDeterminism checks that two identical
// operation sequences produce identical firing schedules.
func TestInterleavedScheduleCancelDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		var fires []Time
		var events []*Event
		for i := 0; i < 100; i++ {
			e := NewEvent(func(now Time) { fires = append(fires, now) })
			s.Schedule(e, Time((i*37)%50)*Millisecond)
			events = append(events, e)
		}
		for i := 0; i < 100; i += 3 {
			s.Cancel(events[i])
		}
		s.RunAll()
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventWhenAndPendingLifecycle(t *testing.T) {
	s := New()
	e := NewEvent(func(Time) {})
	if e.Pending() {
		t.Fatal("fresh event pending")
	}
	s.Schedule(e, 3*Second)
	if !e.Pending() || e.When() != 3*Second {
		t.Fatalf("pending=%v when=%v", e.Pending(), e.When())
	}
	s.RunAll()
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestCancelDuringRun(t *testing.T) {
	// An event cancelled by an earlier event at the same timestamp must
	// not fire.
	s := New()
	fired := false
	victim := NewEvent(func(Time) { fired = true })
	s.Call(Second, func(Time) { s.Cancel(victim) })
	s.Schedule(victim, Second) // same timestamp, scheduled after the canceller
	s.RunAll()
	if fired {
		t.Fatal("cancelled same-timestamp event fired")
	}
}

// TestStreamHintIsOnlyAHint runs one random schedule/cancel/run program —
// events that schedule themselves, each other and their lane from inside
// their callbacks, so that consumed-root holes open and are reused in both
// tiers — with no event, every event and every other event flagged as a
// stream head. The tier an event waits in must not show: the firing log and
// Len, Peek and the clock after every step are identical.
func TestStreamHintIsOnlyAHint(t *testing.T) {
	program := func(seed int64, stream func(i int) bool) (trace []int64, c Counters) {
		const n = 16
		s := New()
		rng := rand.New(rand.NewSource(seed))
		ln := s.Lane(7)
		events := make([]Event, n)
		for i := range events {
			i, e := i, &events[i]
			fn := func(now Time) {
				trace = append(trace, int64(i), int64(now))
				other := &events[rng.Intn(n)]
				switch rng.Intn(5) {
				case 0:
					s.Schedule(e, now+Time(rng.Intn(20)))
				case 1:
					s.ScheduleLane(ln, e, now+7)
				case 2:
					s.Cancel(other)
				case 3:
					s.Reschedule(other, now+Time(rng.Intn(50)))
				}
			}
			if stream(i) {
				e.InitStream(fn)
			} else {
				e.Init(fn)
			}
		}
		for step := 0; step < 400; step++ {
			e := &events[rng.Intn(n)]
			switch at := s.Now() + Time(rng.Intn(100)); rng.Intn(5) {
			case 0:
				s.Reschedule(e, at)
			case 1:
				s.Reschedule(e, at+1000) // far future: sinks in either tier
			case 2:
				s.Cancel(e)
			case 3:
				if !e.Pending() {
					s.ScheduleLane(ln, e, s.Now()+7)
				}
			case 4:
				s.Run(s.Now() + Time(rng.Intn(30)))
			}
			when, ok := s.Peek()
			if !ok {
				when = -1
			}
			trace = append(trace, -1, int64(s.Len()), int64(when), int64(s.Now()))
		}
		s.Run(s.Now() + 5000)
		return append(trace, -2, int64(s.Len()), int64(s.Now())), s.Counters()
	}
	for seed := int64(1); seed <= 20; seed++ {
		plain, cp := program(seed, func(int) bool { return false })
		all, ca := program(seed, func(int) bool { return true })
		mixed, cm := program(seed, func(i int) bool { return i%2 == 1 })
		if !reflect.DeepEqual(plain, all) || !reflect.DeepEqual(plain, mixed) {
			t.Fatalf("seed %d: the stream flag changed the run (%d / %d / %d trace words)",
				seed, len(plain), len(all), len(mixed))
		}
		// Not vacuous: the three runs did use the tiers differently.
		if cp.Executed < 100 || ca.StreamSchedules != ca.HeapSchedules ||
			cp.StreamSchedules >= cm.StreamSchedules || cm.StreamSchedules >= ca.StreamSchedules {
			t.Fatalf("seed %d: stream schedules %d / %d / %d of %d, %d executed",
				seed, cp.StreamSchedules, cm.StreamSchedules, ca.StreamSchedules, ca.HeapSchedules, cp.Executed)
		}
	}
}

// TestPeekInsideCallback: a callback's Peek must skip the event being
// dispatched, whose consumed slot is still the root of its tier.
func TestPeekInsideCallback(t *testing.T) {
	s := New()
	var got []Time
	peek := func(Time) {
		when, ok := s.Peek()
		if !ok {
			when = -1
		}
		got = append(got, when)
	}
	s.Schedule(NewStreamEvent(peek), 10)
	s.Schedule(NewEvent(peek), 20)
	s.Schedule(NewStreamEvent(peek), 30)
	s.Schedule(NewEvent(peek), 40)
	s.RunAll()
	if want := []Time{20, 30, 40, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Peek inside callbacks = %v, want %v", got, want)
	}
}
