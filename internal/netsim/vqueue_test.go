package netsim

import (
	"testing"

	"eac/internal/sim"
)

func TestVirtualQueueMarksWhenFull(t *testing.T) {
	// 8000 bits/s = 1000 bytes/s shadow rate, 500-byte shadow buffer.
	v := NewVirtualQueue(8000, 500)
	p := &Packet{Size: 200, Band: BandData}
	// Three arrivals at t=0: 200+200 fit, the third (600 > 500) is marked.
	if v.OnArrival(0, p) {
		t.Fatal("first packet marked")
	}
	if v.OnArrival(0, p) {
		t.Fatal("second packet marked")
	}
	if !v.OnArrival(0, p) {
		t.Fatal("third packet should be marked (shadow overflow)")
	}
	if v.Backlog(BandData) != 400 {
		t.Fatalf("backlog = %d, want 400 (marked packet not inserted)", v.Backlog(BandData))
	}
}

func TestVirtualQueueDrains(t *testing.T) {
	v := NewVirtualQueue(8000, 500) // drains 1000 bytes/s
	p := &Packet{Size: 400, Band: BandData}
	if v.OnArrival(0, p) {
		t.Fatal("marked on empty shadow queue")
	}
	// 200 ms later, 200 bytes drained: 200 backlog + 400 = 600 > 500 -> mark.
	if !v.OnArrival(200*sim.Millisecond, p) {
		t.Fatal("expected mark: insufficient drain")
	}
	// 400 ms after t=0 the backlog is 0; fits again.
	if v.OnArrival(400*sim.Millisecond, p) {
		t.Fatal("unexpected mark after full drain")
	}
}

func TestVirtualQueueDrainsHighPriorityFirst(t *testing.T) {
	v := NewVirtualQueue(8000, 1000)
	data := &Packet{Size: 400, Band: BandData}
	probe := &Packet{Size: 400, Band: BandProbe}
	v.OnArrival(0, data)
	v.OnArrival(0, probe)
	// After 300 ms, 300 bytes drained, all from the data band.
	v.OnArrival(300*sim.Millisecond, &Packet{Size: 1, Band: BandData})
	if got := v.Backlog(BandData); got != 101 {
		t.Fatalf("data backlog = %d, want 101 (100 left + 1 new)", got)
	}
	if got := v.Backlog(BandProbe); got != 400 {
		t.Fatalf("probe backlog = %d, want 400 (untouched)", got)
	}
}

func TestVirtualQueueDataEvictsShadowProbes(t *testing.T) {
	v := NewVirtualQueue(8000, 500)
	probe := &Packet{Size: 300, Band: BandProbe}
	data := &Packet{Size: 300, Band: BandData}
	if v.OnArrival(0, probe) {
		t.Fatal("probe marked on empty queue")
	}
	// Data does not fit (600 > 500) but evicts shadow probe backlog
	// instead of being marked, mirroring push-out.
	if v.OnArrival(0, data) {
		t.Fatal("data should evict shadow probe backlog, not be marked")
	}
	if v.Backlog(BandData) != 300 {
		t.Fatalf("data backlog = %d", v.Backlog(BandData))
	}
	if v.Backlog(BandProbe) != 200 {
		t.Fatalf("probe backlog = %d, want 200 (100 evicted)", v.Backlog(BandProbe))
	}
	// An arriving probe in the same situation is marked.
	if !v.OnArrival(0, probe) {
		t.Fatal("probe should be marked when the shadow queue is full")
	}
}

func TestVirtualQueueMarkRateExceedsRealDropRate(t *testing.T) {
	// The design intent: the 90%-speed shadow queue congests before the
	// real queue, so marks lead drops. Drive a real link at 95% of its
	// rate and verify the shadow marks packets while the real queue
	// (200-packet buffer) never drops.
	s := sim.New()
	q := NewDropTail(200)
	l := NewLink(s, "t", 1e6, sim.Millisecond, q)
	l.Marker = NewVirtualQueue(0.9e6, 200*125)
	sink := &countingSink{}
	// 950 kb/s of 125-byte packets = 950 pps.
	n := 0
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		p := &Packet{Size: 125, Band: BandData, Kind: Data, Route: []Receiver{l, sink}}
		Send(now, p)
		n++
		if n < 5000 {
			s.Schedule(ev, now+sim.Seconds(125*8/950e3))
		}
	})
	s.Schedule(ev, 0)
	s.RunAll()
	st := l.StatsAt(s.Now())
	if st.Dropped[Data] != 0 {
		t.Fatalf("real queue dropped %d packets", st.Dropped[Data])
	}
	if st.Marked[Data] == 0 {
		t.Fatal("shadow queue produced no marks at 95% load")
	}
	if sink.marked == 0 {
		t.Fatal("marks did not propagate to delivered packets")
	}
}

type countingSink struct {
	n      int
	marked int
	lastAt sim.Time
	seqs   []int64
}

func (c *countingSink) Receive(now sim.Time, p *Packet) {
	c.n++
	if p.Marked {
		c.marked++
	}
	c.lastAt = now
	c.seqs = append(c.seqs, p.Seq)
}

func TestVirtualQueueExactRateDrain(t *testing.T) {
	// Edge case: arrivals at exactly the shadow service rate. 8000 bits/s
	// = 1000 bytes/s; a 100-byte packet every 100 ms is drained completely
	// between arrivals, so the backlog never accumulates and nothing is
	// ever marked, no matter how long the sequence runs.
	v := NewVirtualQueue(8000, 150)
	p := &Packet{Size: 100, Band: BandData}
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * 100 * sim.Millisecond
		if v.OnArrival(at, p) {
			t.Fatalf("marked at arrival %d despite exact-rate drain", i)
		}
	}
	if got := v.TotalBacklog(); got != 100 {
		t.Fatalf("TotalBacklog = %d, want 100 (just the last arrival)", got)
	}
}

func TestVirtualQueueJustAboveRateMarks(t *testing.T) {
	// One millisecond faster than the drain rate: each arrival leaves a
	// net +1 byte of shadow backlog, which must eventually overflow the
	// buffer and mark — the smallest sustained overload is detected.
	v := NewVirtualQueue(8000, 150)
	p := &Packet{Size: 100, Band: BandData}
	marked := false
	for i := 0; i < 1000 && !marked; i++ {
		at := sim.Time(i) * 99 * sim.Millisecond
		marked = v.OnArrival(at, p)
	}
	if !marked {
		t.Fatal("no mark after 1000 arrivals just above the shadow rate")
	}
}

func TestVirtualQueueRejectsZeroConfig(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on invalid config", name)
			}
		}()
		f()
	}
	mustPanic("zero rate", func() { NewVirtualQueue(0, 500) })
	mustPanic("zero capacity", func() { NewVirtualQueue(8000, 0) })
	mustPanic("negative rate", func() { NewVirtualQueue(-1, 500) })
}

func TestVirtualQueueTotalBacklog(t *testing.T) {
	v := NewVirtualQueue(8000, 1000)
	v.OnArrival(0, &Packet{Size: 300, Band: BandData})
	v.OnArrival(0, &Packet{Size: 200, Band: BandProbe})
	if got := v.TotalBacklog(); got != 500 {
		t.Fatalf("TotalBacklog = %d, want 500", got)
	}
	// Backlog is as of the last arrival; a new arrival drains first.
	v.OnArrival(100*sim.Millisecond, &Packet{Size: 100, Band: BandData}) // 100 B drained
	if got := v.TotalBacklog(); got != 500 {
		t.Fatalf("TotalBacklog = %d, want 500 (400 left + 100 new)", got)
	}
}

func TestVQDropProbesMode(t *testing.T) {
	// Footnote 14's router behaviour: when the shadow queue would mark a
	// probe, drop it instead; data packets are still marked, not dropped.
	s := sim.New()
	l := NewLink(s, "vd", 1e6, sim.Millisecond, NewDropTail(200))
	l.Marker = NewVirtualQueue(0.9e6, 200*125)
	l.VQDropProbes = true
	sink := &countingSink{}
	// Saturate the shadow queue at 95% of the real link with alternating
	// data and probe packets.
	n := 0
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		kind, band := Data, uint8(BandData)
		if n%2 == 1 {
			kind, band = Probe, BandProbe
		}
		Send(now, &Packet{Size: 125, Kind: kind, Band: band, Route: []Receiver{l, sink}})
		n++
		if n < 10000 {
			s.Schedule(ev, now+sim.Seconds(125*8/950e3))
		}
	})
	s.Schedule(ev, 0)
	s.RunAll()
	st := l.StatsAt(s.Now())
	if st.Dropped[Probe] == 0 {
		t.Fatal("no virtual probe drops at 95% load")
	}
	if st.Marked[Probe] != 0 {
		t.Fatalf("probes marked (%d) despite VQDropProbes", st.Marked[Probe])
	}
	if st.Dropped[Data] != 0 {
		t.Fatalf("data virtually dropped: %d", st.Dropped[Data])
	}
	// Data is never marked here: its 475 kb/s share fits the 900 kb/s
	// shadow queue, and arriving data evicts shadow probe backlog rather
	// than being marked — probes absorb all of the congestion signal.
	if st.Marked[Data] != 0 {
		t.Fatalf("data marked (%d) though its own load fits the shadow queue", st.Marked[Data])
	}
}

// TestVirtualQueueFailedEvictionLeavesShadowUnchanged pins the OnArrival
// eviction contract: when a data packet does not fit even after evicting
// every lower-band byte, the packet is marked and the shadow queue is
// left exactly as it was — like PriorityPushout, which never partially
// commits. (A bug here used to zero the shadow probe backlog on the way
// to discovering the arrival still did not fit, so every oversized data
// arrival silently drained the shadow queue.)
func TestVirtualQueueFailedEvictionLeavesShadowUnchanged(t *testing.T) {
	// 1000-byte shadow buffer holding only probe bytes, fewer than the
	// arrival needs freed.
	v := NewVirtualQueue(8000, 1000)
	if v.OnArrival(0, &Packet{Size: 300, Band: BandProbe}) {
		t.Fatal("probe seeding should fit")
	}
	// 1200 > 1000: even evicting all 300 probe bytes cannot make room.
	if !v.OnArrival(0, &Packet{Size: 1200, Band: BandData}) {
		t.Fatal("oversized data packet must be marked")
	}
	if got := v.Backlog(BandProbe); got != 300 {
		t.Fatalf("failed eviction destroyed shadow probe backlog: got %d, want 300", got)
	}
	if got := v.Backlog(BandData); got != 0 {
		t.Fatalf("failed eviction inserted data bytes: got %d, want 0", got)
	}

	// Mixed bands: data + probe resident, arrival needs more than the
	// probe band alone can free.
	v = NewVirtualQueue(8000, 1000)
	v.OnArrival(0, &Packet{Size: 300, Band: BandProbe})
	v.OnArrival(0, &Packet{Size: 600, Band: BandData})
	if !v.OnArrival(0, &Packet{Size: 800, Band: BandData}) {
		t.Fatal("arrival needing 700 freed with 300 evictable must be marked")
	}
	if p, d := v.Backlog(BandProbe), v.Backlog(BandData); p != 300 || d != 600 {
		t.Fatalf("failed eviction mutated shadow queue: probe=%d data=%d, want 300/600", p, d)
	}

	// Control: when eviction CAN make room, it commits and inserts.
	v = NewVirtualQueue(8000, 1000)
	v.OnArrival(0, &Packet{Size: 300, Band: BandProbe})
	v.OnArrival(0, &Packet{Size: 600, Band: BandData})
	if v.OnArrival(0, &Packet{Size: 350, Band: BandData}) {
		t.Fatal("arrival needing 250 freed with 300 evictable must not be marked")
	}
	if p, d := v.Backlog(BandProbe), v.Backlog(BandData); p != 50 || d != 950 {
		t.Fatalf("successful eviction: probe=%d data=%d, want 50/950", p, d)
	}
}
