package netsim

import (
	"testing"

	"eac/internal/sim"
)

// collectRecv records delivery times/seqs at the end of a route.
type collectRecv struct {
	pool *Pool
	got  []int64
}

func (c *collectRecv) Receive(now sim.Time, p *Packet) {
	c.got = append(c.got, int64(now)<<16|int64(p.Seq&0xffff))
	c.pool.Put(p)
}

// driveLink pushes a fixed deterministic workload through l and returns the
// delivery log. The workload oversubscribes the queue so drops, pushouts and
// the in-flight pipe all get exercised.
func driveLink(s *sim.Sim, l *Link, pool *Pool, sink *collectRecv) []int64 {
	sink.got = sink.got[:0]
	route := []Receiver{l, sink}
	for i := 0; i < 60; i++ {
		i := i
		s.Call(sim.Time(i)*sim.Millisecond/4, func(now sim.Time) {
			p := pool.Get()
			p.FlowID = 1
			p.Seq = int64(i)
			p.Size = 1000
			if i%5 == 4 {
				p.Kind = Probe
				p.Band = BandProbe
			}
			p.Route = route
			p.Forward(now)
		})
	}
	s.Run(200 * sim.Millisecond)
	return append([]int64(nil), sink.got...)
}

// TestLinkResetReplayIdentical pins the link half of run-state reuse: after
// Sim.Reset + Link.Reset (+ SetCap), replaying a workload produces delivery
// order, stats, and queue state identical to a fresh link's.
func TestLinkResetReplayIdentical(t *testing.T) {
	run := func(s *sim.Sim, l *Link, pool *Pool) ([]int64, LinkStats) {
		sink := &collectRecv{pool: pool}
		l.OnDrop = func(_ sim.Time, p *Packet) { pool.Put(p) }
		got := driveLink(s, l, pool, sink)
		return got, *l.StatsAt(s.Now())
	}

	// Fresh baseline.
	s1 := sim.New()
	var pool1 Pool
	l1 := NewLink(s1, "L0", 1e6, 5*sim.Millisecond, NewPriorityPushout(8))
	wantLog, wantStats := run(s1, l1, &pool1)

	// Reused path: run once, reset mid-flight state, run again.
	s2 := sim.New()
	var pool2 Pool
	l2 := NewLink(s2, "L0", 2e6, sim.Millisecond, NewPriorityPushout(4))
	l2.OnDrop = func(_ sim.Time, p *Packet) { pool2.Put(p) }
	firstSink := &collectRecv{pool: &pool2}
	driveLink(s2, l2, &pool2, firstSink)

	s2.Reset()
	l2.Reset(1e6, 5*sim.Millisecond, pool2.Put)
	l2.Q.(*PriorityPushout).SetCap(8)
	if l2.QueueLen(0) != 0 || l2.Busy(0) {
		t.Fatalf("link not idle after Reset: qlen=%d busy=%v", l2.QueueLen(0), l2.Busy(0))
	}
	gotLog, gotStats := run(s2, l2, &pool2)

	if len(gotLog) != len(wantLog) {
		t.Fatalf("delivery count %d after reuse, want %d", len(gotLog), len(wantLog))
	}
	for i := range gotLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("delivery %d differs: got %x want %x", i, gotLog[i], wantLog[i])
		}
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged after reuse:\ngot  %+v\nwant %+v", gotStats, wantStats)
	}
}

// TestLinkResetRecyclesInFlight checks every packet alive at Reset time —
// queued, in transmission, or propagating — is handed back exactly once:
// the packet in service already sits in the pipe, unless it is a boundary
// hand-off held for its txEnd, or was booked and pooled by a recording
// endpoint the moment it went into service.
func TestLinkResetRecyclesInFlight(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		sink := &collectRecv{}
		testLinkResetRecycles(t, sink, sink)
	})
	t.Run("handoff", func(t *testing.T) {
		end := &handoffRecv{}
		testLinkResetRecycles(t, end, &end.collectRecv)
	})
	t.Run("recorder", func(t *testing.T) {
		end := &recorderRecv{}
		testLinkResetRecycles(t, end, &end.collectRecv)
	})
}

// recorderRecv is collectRecv as a Recorder.
type recorderRecv struct{ collectRecv }

func (r *recorderRecv) Record(at sim.Time, p *Packet) bool { r.Receive(at, p); return true }

// handoffRecv is collectRecv taking custody at transmission end.
type handoffRecv struct{ collectRecv }

func (h *handoffRecv) ReceiveTxEnd(txEnd, _ sim.Time, p *Packet) { h.Receive(txEnd, p) }

// testLinkResetRecycles resets a boundary link in mid-flight whose packets
// end at end, which records into sink.
func testLinkResetRecycles(t *testing.T, end Receiver, sink *collectRecv) {
	s := sim.New()
	var pool Pool
	l := NewLink(s, "L0", 1e6, 50*sim.Millisecond, NewPriorityPushout(8))
	l.Boundary = true
	l.OnDrop = func(_ sim.Time, p *Packet) { pool.Put(p) }
	sink.pool = &pool
	route := []Receiver{l, end}
	for i := 0; i < 30; i++ {
		p := pool.Get()
		p.Size = 1000
		p.Route = route
		p.Forward(0)
	}
	// Stop mid-flight: some packets queued, one in service, some in the pipe.
	s.Run(10 * sim.Millisecond)
	if l.QueueLen(s.Now()) == 0 || !l.Busy(s.Now()) {
		t.Fatalf("test setup: want mid-flight state, qlen=%d busy=%v", l.QueueLen(s.Now()), l.Busy(s.Now()))
	}
	recycled := 0
	seen := map[*Packet]bool{}
	s.Reset()
	l.Reset(1e6, 50*sim.Millisecond, func(p *Packet) {
		if seen[p] {
			t.Fatal("packet recycled twice")
		}
		seen[p] = true
		recycled++
		pool.Put(p)
	})
	live := int(pool.Allocated) - pool.FreeLen() + recycled + len(sink.got)
	// Every allocated packet is now accounted for: recycled at Reset,
	// delivered to the sink (then pooled), or dropped (then pooled).
	if int(pool.Allocated) != pool.FreeLen() {
		t.Fatalf("leaked packets: allocated %d, free %d (recycled %d, delivered %d, live %d)",
			pool.Allocated, pool.FreeLen(), recycled, len(sink.got), live)
	}
	if recycled == 0 {
		t.Fatal("expected in-flight packets to be recycled")
	}
}
