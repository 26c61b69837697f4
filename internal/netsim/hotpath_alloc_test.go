package netsim

import (
	"testing"

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
// sim lane; the probe stream reschedules on the heap.
func TestSteadyStatePacketPathZeroAlloc(t *testing.T) {
	s := sim.New()
	pool := &Pool{}
	q := NewPriorityPushout(64)
	link := NewLink(s, "hot", 10e6, 5*sim.Millisecond, q)
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
				p.Kind, p.Band, p.Size, p.Route = Data, BandData, size, route
				Send(now, p)
			}).Start(0)
		}
	}
	emitEvery := func(kind Kind, band, size int, period sim.Time) {
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

	// Reused-worker path: rewind the simulator and the link as the grid
	// reset path does and replay. The recycled slabs are already at
	// steady-state size, so the second run's packet path must also be
	// allocation-free — growth may not sneak back in via Reset.
	s.Reset()
	link.Reset(10e6, 5*sim.Millisecond, pool.Put)
	q.SetCap(64)
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
