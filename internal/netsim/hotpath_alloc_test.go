package netsim

import (
	"testing"
	"unsafe"

	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/stats"
	"eac/internal/trafgen"
)

// poolSink terminates routes and recycles packets, like the scenario
// runner's sink does.
type poolSink struct{ pool *Pool }

func (ps *poolSink) Receive(_ sim.Time, p *Packet) { ps.pool.Put(p) }

// poolRecorder is poolSink taking data as a Recorder, as that sink does: the
// probes alone go through the link's pipe.
type poolRecorder struct{ poolSink }

func (ps *poolRecorder) Record(_ sim.Time, p *Packet) bool {
	if p.Kind == Data {
		ps.pool.Put(p)
	}
	return p.Kind == Data
}

// TestSteadyStatePacketPathZeroAlloc drives a congested link — data plus
// probe traffic through a marking virtual queue and a pushout discipline,
// with drops recycled — past its warmup transient, then requires that
// continuing the simulation allocates nothing. This pins the pooling
// contract of the hot path: once the event heap, the lane and link ring
// buffers, and the packet pool have grown to steady-state size, the
// per-packet path (tick, lane append and promotion, emit, enqueue, mark,
// drop, transmit, record or propagate and deliver, recycle) must be
// allocation-free.
// The data packets come from on-off sources, so their ticks go through a
// sim lane; the probe stream reschedules on the heap. The traced row gives
// the link a tap from an enabled collector whose 64-record trace ring wraps
// within the first slice: tracing a packet must allocate nothing either.
func TestSteadyStatePacketPathZeroAlloc(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) { steadyStatePacketPath(t, traced) })
	}
}

func steadyStatePacketPath(t *testing.T, traced bool) {
	s := sim.New()
	pool := &Pool{}
	q := NewPriorityPushout(64)
	link := NewLink(s, "hot", 10e6, 5*sim.Millisecond, q)
	var col *obs.Collector
	tap := func() {
		if traced {
			col = obs.New(obs.Config{Enabled: true, TraceCapacity: 64}, 1)
			link.Tap = col.RegisterLink("hot")
		}
	}
	tap()
	link.Marker = NewVirtualQueue(9e6, 64*1000)
	link.OnDrop = func(_ sim.Time, p *Packet) { pool.Put(p) }
	route := []Receiver{link, &poolRecorder{poolSink{pool: pool}}}

	// Offered load ~1.25x the link rate so the queue stays full and the
	// drop/pushout/mark branches all run: forty EXP3 sources, on half the
	// time at 512 kb/s, plus a 2.4 Mb/s probe stream.
	startData := func() {
		rng := stats.NewRNG(1)
		for i := 0; i < 40; i++ {
			trafgen.EXP3.New(s, rng, func(now sim.Time, size int) {
				p := pool.Get()
				p.Kind, p.Band, p.Size, p.Route = Data, BandData, int32(size), route
				Send(now, p)
			}).Start(0)
		}
	}
	emitEvery := func(kind Kind, band uint8, size int32, period sim.Time) {
		var ev *sim.Event
		ev = sim.NewEvent(func(now sim.Time) {
			p := pool.Get()
			p.Kind = kind
			p.Band = band
			p.Size = size
			p.Route = route
			Send(now, p)
			s.Schedule(ev, now+period)
		})
		s.Schedule(ev, 0)
	}
	startData()
	emitEvery(Probe, BandProbe, 500, 1700*sim.Microsecond)

	until := 2 * sim.Second
	s.Run(until) // warmup: grow rings, heap, and pool to steady state

	appends, drops := s.Counters().LaneAppends, link.StatsAt(s.Now()).Dropped[Data]
	overwritten := col.TraceDropped()
	allocs := testing.AllocsPerRun(5, func() {
		until += 200 * sim.Millisecond
		s.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("steady-state per-packet path allocated %v times per 200ms slice, want 0", allocs)
	}
	if s.Counters().LaneAppends == appends || link.StatsAt(s.Now()).Dropped[Data] == drops {
		t.Fatalf("guarded section is vacuous: lane appends %d -> %d, data drops %d -> %d",
			appends, s.Counters().LaneAppends, drops, link.StatsAt(s.Now()).Dropped[Data])
	}
	if traced && col.TraceDropped() == overwritten {
		t.Fatalf("trace ring did not wrap in the guarded section: %d overwritten before and after", overwritten)
	}

	// Reused-worker path: rewind the simulator and the link as the grid
	// reset path does and replay. The recycled slabs are already at
	// steady-state size, so the second run's packet path must also be
	// allocation-free — growth may not sneak back in via Reset.
	s.Reset()
	link.Reset(10e6, 5*sim.Millisecond, pool.Put)
	q.SetCap(64)
	tap()
	link.Marker = NewVirtualQueue(9e6, 64*1000)
	link.OnDrop = func(_ sim.Time, p *Packet) { pool.Put(p) }
	startData()
	emitEvery(Probe, BandProbe, 500, 1700*sim.Microsecond)
	until = 200 * sim.Millisecond
	s.Run(until) // refill queues and pipe from the recycled pool
	allocs = testing.AllocsPerRun(5, func() {
		until += 200 * sim.Millisecond
		s.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("reused-worker steady-state path allocated %v times per 200ms slice, want 0", allocs)
	}
}

// TestPacketSize pins Packet at 64 bytes, one cache line, and the pool's
// slabs at line boundaries, so a packet-hop's reads (Link.startTx's Bits,
// Forward's hop and Route) miss the cache once. At 104 bytes they straddled
// two lines, and so did every packet of a 16 KB slab, which starts after
// Go's 8-byte malloc header. This layout, with the flow table's slots that
// spare emitData its flowState, cut metro_serial's wall_s by 37 % at seed 1
// and 34 % at seed 7 (2-core Xeon, ten interleaved pairs each).
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 64 {
		t.Fatalf("sizeof(Packet) = %d, want 64", n)
	}
	var pl Pool
	for i := 0; i < 3*poolSlab; i++ {
		if p := pl.Get(); i%poolSlab == 0 && uintptr(unsafe.Pointer(p))%64 != 0 {
			t.Fatalf("slab %d starts at %p, want a 64-byte boundary", i/poolSlab, p)
		}
	}
}
