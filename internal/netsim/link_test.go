package netsim

import (
	"encoding/json"
	"strings"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
)

// TestLinkSerializationTiming: a 1000-bit packet on a 1 Mb/s link takes
// 1 ms to serialize plus the propagation delay.
func TestLinkSerializationTiming(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", 1e6, 5*sim.Millisecond, NewDropTail(10))
	sink := &countingSink{}
	p := &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l, sink}}
	Send(0, p)
	s.RunAll()
	want := sim.Millisecond + 5*sim.Millisecond
	if sink.lastAt != want {
		t.Fatalf("delivered at %v, want %v", sink.lastAt, want)
	}
	if got := l.StatsAt(s.Now()).SentBits[Data]; got != 1000 {
		t.Fatalf("SentBits = %d", got)
	}
}

// TestLinkBackToBack: two packets arriving together are serialized in
// sequence: deliveries at 1ms+d and 2ms+d.
func TestLinkBackToBack(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", 1e6, 5*sim.Millisecond, NewDropTail(10))
	sink := &countingSink{}
	for i := int64(0); i < 2; i++ {
		Send(0, &Packet{Size: 125, Seq: i, Kind: Data, Band: BandData, Route: []Receiver{l, sink}})
	}
	s.RunAll()
	if sink.n != 2 {
		t.Fatalf("delivered %d packets", sink.n)
	}
	if sink.lastAt != 2*sim.Millisecond+5*sim.Millisecond {
		t.Fatalf("last delivery at %v", sink.lastAt)
	}
	if sink.seqs[0] != 0 || sink.seqs[1] != 1 {
		t.Fatalf("delivery order %v", sink.seqs)
	}
}

// TestLinkThroughputAtSaturation: offered load far above capacity yields
// deliveries at exactly the link rate and drops for the excess.
func TestLinkThroughputAtSaturation(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", 1e6, sim.Millisecond, NewDropTail(50))
	sink := &countingSink{}
	dropped := 0
	l.OnDrop = func(sim.Time, *Packet) { dropped++ }
	// 2x overload: 2000 pps of 125-byte packets for 10 s.
	var ev *sim.Event
	n := 0
	ev = sim.NewEvent(func(now sim.Time) {
		Send(now, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l, sink}})
		n++
		if n < 20000 {
			s.Schedule(ev, now+sim.Time(float64(sim.Second)/2000))
		}
	})
	s.Schedule(ev, 0)
	s.RunAll()
	// Deliveries: ~1000 pps for ~10 s.
	if sink.n < 9900 || sink.n > 10100 {
		t.Fatalf("delivered %d packets, want ~10000", sink.n)
	}
	if dropped != 20000-sink.n {
		t.Fatalf("conservation broken: %d delivered + %d dropped != 20000", sink.n, dropped)
	}
	st := l.StatsAt(s.Now())
	util := st.Utilization(s.Now(), 1e6)
	if util < 0.98 || util > 1.0 {
		t.Fatalf("utilization = %v, want ~1", util)
	}
	if got := st.DataLossProb(); got < 0.45 || got > 0.55 {
		t.Fatalf("loss prob = %v, want ~0.5", got)
	}
}

// TestLinkMultiHopRouting: packets traverse two links and arrive after the
// sum of the delays.
func TestLinkMultiHopRouting(t *testing.T) {
	s := sim.New()
	l1 := NewLink(s, "a", 1e6, 10*sim.Millisecond, NewDropTail(10))
	l2 := NewLink(s, "b", 1e6, 10*sim.Millisecond, NewDropTail(10))
	sink := &countingSink{}
	Send(0, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l1, l2, sink}})
	s.RunAll()
	want := 2 * (sim.Millisecond + 10*sim.Millisecond)
	if sink.lastAt != want {
		t.Fatalf("arrived at %v, want %v", sink.lastAt, want)
	}
	if l1.StatsAt(s.Now()).SentPkts[Data] != 1 || l2.StatsAt(s.Now()).SentPkts[Data] != 1 {
		t.Fatal("per-link counters wrong")
	}
}

// TestLinkProbePushoutCounters verifies that with a PriorityPushout queue,
// data arrivals at a full buffer displace probes and the drop is accounted
// to the probe.
func TestLinkProbePushoutCounters(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", 1e3, sim.Millisecond, NewPriorityPushout(2))
	sink := &countingSink{}
	// Slow link (1 kb/s): 125-byte packet takes 1 s to serialize, so
	// everything queues. First packet enters service, next two fill the
	// buffer.
	Send(0, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l, sink}})
	Send(0, &Packet{Size: 125, Kind: Probe, Band: BandProbe, Route: []Receiver{l, sink}})
	Send(0, &Packet{Size: 125, Kind: Probe, Band: BandProbe, Route: []Receiver{l, sink}})
	// Data arrival pushes out a probe.
	Send(0, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l, sink}})
	st := l.StatsAt(s.Now())
	if st.Dropped[Probe] != 1 {
		t.Fatalf("probe drops = %d, want 1", st.Dropped[Probe])
	}
	if st.Dropped[Data] != 0 {
		t.Fatalf("data drops = %d, want 0", st.Dropped[Data])
	}
	s.RunAll()
	if sink.n != 3 {
		t.Fatalf("delivered %d, want 3", sink.n)
	}
}

func TestLinkStatsReset(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "t", 1e6, 0, NewDropTail(10))
	sink := &countingSink{}
	Send(0, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l, sink}})
	s.RunAll()
	st := l.StatsAt(s.Now())
	st.Reset(s.Now())
	if st.SentBits[Data] != 0 || st.Arrived[Data] != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if st.ResetTime != s.Now() {
		t.Fatal("Reset epoch wrong")
	}
}

func TestLinkConstructorPanics(t *testing.T) {
	s := sim.New()
	for _, fn := range []func(){
		func() { NewLink(s, "x", 0, 0, NewDropTail(1)) },
		func() { NewLink(s, "x", 1e6, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

// TestPacketForwardEndOfRoute: forwarding past the final hop is a no-op.
func TestPacketForwardEndOfRoute(t *testing.T) {
	sink := &countingSink{}
	p := &Packet{Route: []Receiver{sink}}
	p.Forward(0)
	p.Forward(0) // already consumed: must not re-deliver
	if sink.n != 1 {
		t.Fatalf("delivered %d times", sink.n)
	}
}

// TestMarkedCountsOnlyEnqueuedPackets pins the Marked-counter semantics
// documented on LinkStats: a packet the shadow queue marks but the real
// discipline then drops counts only in Dropped, so Marked+Dropped never
// double-counts an arrival. (It used to count in both, and the traced
// path emitted a Mark event for a packet that never transited.)
func TestMarkedCountsOnlyEnqueuedPackets(t *testing.T) {
	s := sim.New()
	// 100-byte shadow buffer: every 200-byte arrival overflows it and,
	// with nothing in a lower band to evict, is marked. Real buffer of
	// one packet: the third arrival at t=0 (one transmitting, one
	// queued) is tail-dropped.
	l := NewLink(s, "m", 1e6, 0, NewDropTail(1))
	l.Marker = NewVirtualQueue(8000, 100)
	for i := int64(0); i < 3; i++ {
		p := mkPkt(BandData, Data, i)
		p.Size = 200
		p.Route = []Receiver{l}
		Send(0, p)
	}
	st := l.StatsAt(s.Now())
	if got := st.Dropped[Data]; got != 1 {
		t.Fatalf("Dropped[Data] = %d, want 1", got)
	}
	if got := st.Marked[Data]; got != 2 {
		t.Fatalf("Marked[Data] = %d, want 2 (enqueued packets only)", got)
	}
	if got := st.Arrived[Data]; got != 3 {
		t.Fatalf("Arrived[Data] = %d, want 3", got)
	}
}

// TestTracedMarkOnlyForTransitingPackets is the traced-path mirror of
// TestMarkedCountsOnlyEnqueuedPackets: the observability trace must show
// mark events only for packets that entered the queue — a marked-then-
// dropped arrival produces a drop event and no mark event.
func TestTracedMarkOnlyForTransitingPackets(t *testing.T) {
	s := sim.New()
	set := obs.NewMerged(obs.Config{Enabled: true, TraceCapacity: 64}, 1, 1)
	l := NewLink(s, "m", 1e6, 0, NewDropTail(1))
	l.Marker = NewVirtualQueue(8000, 100)
	l.Tap = set.Collector(0).RegisterLink("m")
	for i := int64(0); i < 3; i++ {
		p := mkPkt(BandData, Data, i)
		p.Size = 200
		p.Route = []Receiver{l}
		Send(0, p)
	}
	var b strings.Builder
	if err := set.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	marks, drops := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "mark":
			marks++
		case "drop":
			drops++
		}
	}
	if marks != 2 || drops != 1 {
		t.Fatalf("trace: %d mark, %d drop events, want 2 and 1:\n%s", marks, drops, b.String())
	}
	if got := l.StatsAt(s.Now()).Marked[Data]; got != 2 {
		t.Fatalf("Marked[Data] = %d, want 2", got)
	}
}
