package admission

import (
	"math"
	"testing"

	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

// probeSink terminates probe packets at the prober.
type probeSink struct {
	p    *Prober
	pool *netsim.Pool
}

func (ps *probeSink) Receive(now sim.Time, pk *netsim.Packet) {
	ps.p.OnProbeArrival(now, pk)
	ps.pool.Put(pk)
}

// harness wires one prober to one link with optional background load.
type harness struct {
	s    *sim.Sim
	link *netsim.Link
	pool netsim.Pool
	res  *Result
}

func newHarness(rateBps float64, bufPkts int, marker bool) *harness {
	h := &harness{s: sim.New()}
	h.link = netsim.NewLink(h.s, "test", rateBps, 10*sim.Millisecond, netsim.NewPriorityPushout(bufPkts))
	h.link.OnDrop = func(now sim.Time, p *netsim.Packet) { h.pool.Put(p) }
	if marker {
		h.link.Marker = netsim.NewVirtualQueue(0.9*rateBps, int64(bufPkts*125))
	}
	return h
}

// startProbe launches a prober through the harness link.
func (h *harness) startProbe(cfg Config, rate float64) *Prober {
	sink := &probeSink{pool: &h.pool}
	route := []netsim.Receiver{h.link, sink}
	p := NewProber(h.s, cfg, 0, rate, 125, route, &h.pool, func(r Result) { h.res = &r })
	sink.p = p
	p.Start(h.s.Now())
	return p
}

// cbrLoad injects background traffic at the given average rate directly
// into the link. Inter-packet gaps carry +/-40% uniform jitter so the
// background does not phase-lock with the deterministic probe stream.
func (h *harness) cbrLoad(rateBps float64, band int, kind netsim.Kind) {
	gap := float64(sim.Second) * 125 * 8 / rateBps
	rng := stats.NewStream(12345, "bg-load")
	var ev *sim.Event
	sink := nullSink{}
	route := []netsim.Receiver{h.link, sink}
	ev = sim.NewEvent(func(now sim.Time) {
		pk := h.pool.Get()
		pk.FlowID = 999
		pk.Kind = kind
		pk.Band = uint8(band)
		pk.Size = 125
		pk.Route = route
		netsim.Send(now, pk)
		h.s.Schedule(ev, now+sim.Time(gap*rng.Uniform(0.6, 1.4)))
	})
	h.s.Schedule(ev, 0)
}

type nullSink struct{}

func (nullSink) Receive(now sim.Time, p *netsim.Packet) {}

// stageRates lists a config's per-stage probing rates for token rate r.
func stageRates(c Config, r float64) []float64 {
	rates := make([]float64, c.numStages())
	for i := range rates {
		rates[i] = c.stageRate(i, len(rates), r)
	}
	return rates
}

func TestConfigStagesSlowStart(t *testing.T) {
	c := Config{Kind: SlowStart}.WithDefaults()
	rates := stageRates(c, 256e3)
	want := []float64{256e3 / 16, 256e3 / 8, 256e3 / 4, 256e3 / 2, 256e3}
	if len(rates) != 5 {
		t.Fatalf("stages = %v", rates)
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("stage %d rate = %v, want %v", i, rates[i], want[i])
		}
	}
}

func TestConfigStagesSimpleAndEarlyReject(t *testing.T) {
	c := Config{Kind: Simple}.WithDefaults()
	if got := stageRates(c, 100); len(got) != 1 || got[0] != 100 {
		t.Fatalf("simple stages = %v", got)
	}
	if c.stageDur() != 5*sim.Second {
		t.Fatalf("simple stage duration = %v", c.stageDur())
	}
	c = Config{Kind: EarlyReject}.WithDefaults()
	got := stageRates(c, 100)
	if len(got) != 5 {
		t.Fatalf("early-reject stages = %v", got)
	}
	for _, r := range got {
		if r != 100 {
			t.Fatalf("early-reject stage rate = %v", r)
		}
	}
	if c.stageDur() != sim.Second {
		t.Fatalf("early-reject stage duration = %v", c.stageDur())
	}
}

func TestAcceptOnIdleLink(t *testing.T) {
	for _, kind := range []ProberKind{Simple, EarlyReject, SlowStart} {
		h := newHarness(10e6, 200, false)
		h.startProbe(Config{Design: DropInBand, Kind: kind, Eps: 0}, 256e3)
		h.s.Run(10 * sim.Second)
		if h.res == nil {
			t.Fatalf("%v: no decision", kind)
		}
		if !h.res.Accepted {
			t.Fatalf("%v: rejected on an idle link (lost=%d sent=%d)", kind, h.res.Lost, h.res.Sent)
		}
		if h.res.Lost != 0 {
			t.Fatalf("%v: lost %d probes on an idle link", kind, h.res.Lost)
		}
	}
}

func TestProbeDurations(t *testing.T) {
	// Simple probing decides at ProbeDur + Guard.
	h := newHarness(10e6, 200, false)
	h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0}, 256e3)
	h.s.Run(10 * sim.Second)
	want := 5*sim.Second + 200*sim.Millisecond
	if h.res.Elapsed != want {
		t.Fatalf("simple probe elapsed %v, want %v", h.res.Elapsed, want)
	}
	// Slow-start decides after the fifth stage's guard.
	h = newHarness(10e6, 200, false)
	h.startProbe(Config{Design: DropInBand, Kind: SlowStart, Eps: 0}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res.Elapsed != want {
		t.Fatalf("slow-start elapsed %v, want %v", h.res.Elapsed, want)
	}
}

func TestSlowStartSendsFarFewerProbes(t *testing.T) {
	run := func(kind ProberKind) int64 {
		h := newHarness(10e6, 200, false)
		h.startProbe(Config{Design: DropInBand, Kind: kind, Eps: 0}, 256e3)
		h.s.Run(10 * sim.Second)
		return h.res.Sent
	}
	simple := run(Simple)
	ss := run(SlowStart)
	// Simple: 256 pps * 5 s = 1280. Slow-start: 256*(1/16+...+1)s ~ 496.
	if simple < 1270 || simple > 1290 {
		t.Fatalf("simple sent %d, want ~1280", simple)
	}
	ratio := float64(ss) / float64(simple)
	want := (1.0/16 + 1.0/8 + 1.0/4 + 1.0/2 + 1.0) / 5
	if math.Abs(ratio-want) > 0.03 {
		t.Fatalf("slow-start/simple probe ratio = %.3f, want ~%.3f", ratio, want)
	}
}

func TestRejectOnSaturatedLink(t *testing.T) {
	for _, kind := range []ProberKind{Simple, EarlyReject, SlowStart} {
		h := newHarness(1e6, 20, false)
		h.cbrLoad(1.2e6, netsim.BandData, netsim.Data) // 120% background
		h.startProbe(Config{Design: DropInBand, Kind: kind, Eps: 0.01}, 256e3)
		h.s.Run(10 * sim.Second)
		if h.res == nil || h.res.Accepted {
			t.Fatalf("%v: accepted on a saturated link", kind)
		}
	}
}

func TestEarlyStopHaltsProbingEarly(t *testing.T) {
	// Saturated link: simple probing with eps=0 must abort at the first
	// discovered loss, far before the 5 s nominal duration.
	h := newHarness(1e6, 10, false)
	h.cbrLoad(2e6, netsim.BandData, netsim.Data)
	h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res == nil || h.res.Accepted {
		t.Fatal("accepted under 200% load")
	}
	if h.res.Elapsed > 2*sim.Second {
		t.Fatalf("early stop took %v, expected well under the 5 s probe", h.res.Elapsed)
	}
}

func TestEarlyStopThresholdRule(t *testing.T) {
	// Paper example: 1000 pps probe, eps=1%, planned 5000 packets -> halt
	// once drops exceed 50. Verify bad-count arithmetic via plannedPackets.
	cfg := Config{Design: DropInBand, Kind: Simple, Eps: 0.01}.WithDefaults()
	h := newHarness(10e6, 200, false)
	p := h.startProbe(cfg, 1000e3)
	if got := p.plannedPackets(0); got != 5000 {
		t.Fatalf("planned = %v, want 5000", got)
	}
}

func TestOutOfBandProbesUseProbeBand(t *testing.T) {
	h := newHarness(10e6, 200, false)
	h.startProbe(Config{Design: DropOutOfBand, Kind: Simple, Eps: 0}, 256e3)
	h.s.Run(sim.Second)
	if h.link.StatsAt(h.s.Now()).Arrived[netsim.Probe] == 0 {
		t.Fatal("no probe packets arrived")
	}
	// Saturate with data: all probe packets must be pushed out/dropped
	// while data survives.
	h = newHarness(1e6, 20, false)
	h.cbrLoad(0.99e6, netsim.BandData, netsim.Data)
	h.startProbe(Config{Design: DropOutOfBand, Kind: Simple, Eps: 0.05}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res == nil || h.res.Accepted {
		t.Fatal("out-of-band probe accepted on a nearly full link")
	}
	if h.link.StatsAt(h.s.Now()).Dropped[netsim.Data] != 0 {
		t.Fatalf("data dropped %d packets; probes must absorb all loss", h.link.StatsAt(h.s.Now()).Dropped[netsim.Data])
	}
	if h.link.StatsAt(h.s.Now()).Dropped[netsim.Probe] == 0 {
		t.Fatal("no probe drops on an oversubscribed link")
	}
}

func TestInBandProbeLossMatchesDataLoss(t *testing.T) {
	// In-band probes share the data band: on an oversubscribed link both
	// kinds are dropped.
	h := newHarness(1e6, 20, false)
	h.cbrLoad(1.1e6, netsim.BandData, netsim.Data)
	h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0.5}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.link.StatsAt(h.s.Now()).Dropped[netsim.Probe] == 0 || h.link.StatsAt(h.s.Now()).Dropped[netsim.Data] == 0 {
		t.Fatalf("expected drops in both kinds: probe=%d data=%d",
			h.link.StatsAt(h.s.Now()).Dropped[netsim.Probe], h.link.StatsAt(h.s.Now()).Dropped[netsim.Data])
	}
}

func TestMarkDesignRejectsOnMarks(t *testing.T) {
	// Virtual queue at 90% of 1 Mb/s; background load at 95% of the link:
	// no real drops, but the shadow queue marks, and a marking prober
	// must reject while a dropping prober accepts.
	// Background 0.70 Mb/s + 0.256 Mb/s probe = 0.956 Mb/s: below the
	// real 1 Mb/s link but above the 0.9 Mb/s virtual queue.
	h := newHarness(1e6, 200, true)
	h.cbrLoad(0.70e6, netsim.BandData, netsim.Data)
	h.startProbe(Config{Design: MarkInBand, Kind: Simple, Eps: 0.01}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res == nil {
		t.Fatal("no decision")
	}
	if h.res.Accepted {
		t.Fatalf("marking design accepted: marked=%d lost=%d sent=%d",
			h.res.Marked, h.res.Lost, h.res.Sent)
	}
	if h.res.Marked == 0 {
		t.Fatal("no marks recorded")
	}
	// The same load with a dropping design: no real loss, so accept.
	h2 := newHarness(1e6, 200, false)
	h2.cbrLoad(0.70e6, netsim.BandData, netsim.Data)
	h2.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0.01}, 256e3)
	h2.s.Run(10 * sim.Second)
	if h2.res == nil || !h2.res.Accepted {
		t.Fatal("dropping design rejected though nothing was dropped")
	}
}

func TestEpsilonZeroStrict(t *testing.T) {
	// One single lost probe packet must reject an eps=0 flow. Tiny buffer
	// and moderate background cause occasional overlap drops.
	h := newHarness(1e6, 5, false)
	h.cbrLoad(0.9e6, netsim.BandData, netsim.Data)
	h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0}, 512e3)
	h.s.Run(10 * sim.Second)
	if h.res == nil {
		t.Fatal("no decision")
	}
	if h.res.Accepted && h.res.Lost > 0 {
		t.Fatal("accepted with nonzero loss at eps=0")
	}
}

func TestHigherEpsilonAcceptsMore(t *testing.T) {
	// Under identical moderate congestion, a permissive threshold accepts
	// where a strict one rejects.
	run := func(eps float64) bool {
		h := newHarness(1e6, 10, false)
		h.cbrLoad(1.02e6, netsim.BandData, netsim.Data)
		h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: eps}, 128e3)
		h.s.Run(10 * sim.Second)
		if h.res == nil {
			t.Fatal("no decision")
		}
		return h.res.Accepted
	}
	if run(0) {
		t.Fatal("eps=0 accepted under visible loss")
	}
	if !run(0.5) {
		t.Fatal("eps=0.5 rejected under mild loss")
	}
}

func TestResultCounters(t *testing.T) {
	h := newHarness(10e6, 200, false)
	h.startProbe(Config{Design: DropInBand, Kind: Simple, Eps: 0}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res.Sent != 1280 {
		t.Fatalf("sent = %d, want 1280 (256 pps * 5 s)", h.res.Sent)
	}
	if h.res.Lost != 0 || h.res.Marked != 0 {
		t.Fatalf("lost=%d marked=%d on idle link", h.res.Lost, h.res.Marked)
	}
}

func TestDesignStrings(t *testing.T) {
	if DropInBand.String() != "drop (in-band)" {
		t.Fatalf("got %q", DropInBand.String())
	}
	if MarkOutOfBand.String() != "mark (out-of-band)" {
		t.Fatalf("got %q", MarkOutOfBand.String())
	}
	if SlowStart.String() != "slow-start" || EarlyReject.String() != "early-reject" || Simple.String() != "simple" {
		t.Fatal("prober kind strings")
	}
	if len(Designs) != 4 {
		t.Fatal("expected 4 prototype designs")
	}
}

func TestSlowStartGentlerThanSimpleOnLoadedLink(t *testing.T) {
	// Measure how many probe packets hit the link before a rejection
	// under overload: slow-start should inject fewer.
	inject := func(kind ProberKind) int64 {
		h := newHarness(1e6, 10, false)
		h.cbrLoad(1.5e6, netsim.BandData, netsim.Data)
		h.startProbe(Config{Design: DropInBand, Kind: kind, Eps: 0}, 512e3)
		h.s.Run(10 * sim.Second)
		if h.res == nil || h.res.Accepted {
			t.Fatalf("%v: expected rejection", kind)
		}
		return h.res.Sent
	}
	if ss, simple := inject(SlowStart), inject(Simple); ss > simple {
		t.Fatalf("slow-start sent %d probes, simple sent %d; slow-start should not exceed", ss, simple)
	}
}

func TestVDropDesignRejectsViaVirtualDrops(t *testing.T) {
	// Footnote 14: the router drops out-of-band probes when the virtual
	// queue congests, so a VDrop prober rejects on loss even though the
	// real queue never drops anything.
	h := newHarness(1e6, 200, true)
	h.link.VQDropProbes = true
	h.cbrLoad(0.70e6, netsim.BandData, netsim.Data) // 0.956 total: > vq, < link
	h.startProbe(Config{Design: VDropOutOfBand, Kind: Simple, Eps: 0.05}, 256e3)
	h.s.Run(10 * sim.Second)
	if h.res == nil {
		t.Fatal("no decision")
	}
	if h.res.Accepted {
		t.Fatalf("VDrop design accepted: lost=%d sent=%d", h.res.Lost, h.res.Sent)
	}
	if h.res.Lost == 0 {
		t.Fatal("no probe losses recorded")
	}
	if h.link.StatsAt(h.s.Now()).Dropped[netsim.Data] != 0 {
		t.Fatal("real data drops occurred; the virtual queue should act first")
	}
	if h.link.StatsAt(h.s.Now()).Marked[netsim.Probe] != 0 {
		t.Fatal("probes were marked, not dropped")
	}
}

func TestVDropStrings(t *testing.T) {
	if VDropOutOfBand.String() != "vdrop (out-of-band)" {
		t.Fatalf("got %q", VDropOutOfBand.String())
	}
}

// TestProbeAllocBill holds the per-probe allocation bill. NewProber's first
// probe pays for an arena of one (the arena with the prober and its CBR
// source inside, five arena-wide callbacks, one block holding every stage's
// rate, counters and judge event): seven allocations. A reused prober —
// every prober after a run's first generation — pays nothing.
// TestProberArenaAllocs holds what a large arena pays.
func TestProbeAllocBill(t *testing.T) {
	h := newHarness(10e6, 200, false)
	cfg := Config{Design: DropInBand, Kind: SlowStart, Eps: 0}
	sink := &probeSink{pool: &h.pool}
	route := []netsim.Receiver{h.link, sink}
	accepted := 0
	done := func(r Result) {
		if r.Accepted {
			accepted++
		}
	}
	probe := func() {
		if sink.p == nil {
			sink.p = NewProber(h.s, cfg, 0, 256e3, 125, route, &h.pool, done)
		} else {
			sink.p.Reinit(cfg, 0, 256e3, 125, route, done)
		}
		sink.p.Start(h.s.Now())
		h.s.Run(h.s.Now() + 6*sim.Second)
	}
	probe() // warm the packet pool, the lanes and the event queue
	fresh := testing.AllocsPerRun(2, func() { sink.p = nil; probe() })
	reused := testing.AllocsPerRun(5, probe)
	t.Logf("five-stage accepted probe: %.0f allocs with a new prober, %.0f reused", fresh, reused)
	// The new-prober ceiling is for the plain build: `make race` (which
	// runs -short) instruments one allocation more.
	if (fresh > 7 && !testing.Short()) || reused != 0 {
		t.Fatalf("allocs per probe: %.0f fresh (ceiling 7), %.0f reused (want 0)", fresh, reused)
	}
	if accepted != 10 { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("%d of 10 probes accepted on an idle link", accepted)
	}
}

// TestReinitDropsLeftoverJudge: a probe rejected between a stage's end and
// its judgment leaves that judge queued (it fires into the finished prober
// and does nothing). If the prober is reused before then, the leftover must
// not judge the new probe's stage on a Guard's worth of packets.
func TestReinitDropsLeftoverJudge(t *testing.T) {
	h := newHarness(10e6, 200, false)
	cfg := Config{Design: DropInBand, Kind: Simple, Eps: 0, ProbeDur: sim.Second}
	var results []Result
	sink := &probeSink{pool: &h.pool}
	route := []netsim.Receiver{h.link, sink}
	done := func(r Result) { results = append(results, r) }
	p := NewProber(h.s, cfg, 0, 256e3, 125, route, &h.pool, done)
	sink.p = p
	p.Start(0)
	h.s.Run(sim.Second + 50*sim.Millisecond) // stage over, judge due at 1.2 s
	p.OnProbeArrival(h.s.Now(), &netsim.Packet{Stage: 0, Seq: 1 << 20})
	if len(results) != 1 || results[0].Accepted {
		t.Fatalf("sequence gap did not reject: %+v", results)
	}
	if pending := h.s.Len(); pending != 1 {
		t.Fatalf("%d events pending after the reject, want the one leftover judge", pending)
	}
	p.Reinit(cfg, 0, 256e3, 125, route, done)
	if h.s.Len() != 0 {
		t.Fatal("Reinit left the previous attempt's judge queued")
	}
	p.Start(h.s.Now())
	h.s.Run(10 * sim.Second)
	if len(results) != 2 || !results[1].Accepted || results[1].Elapsed != cfg.ProbeDur+200*sim.Millisecond {
		t.Fatalf("second probe on an idle link: %+v", results)
	}
}

// TestProberArenaAllocs holds the arena's allocation bill: a recycled
// prober's whole attempt (Get, Reinit, Start, the probe, Put) allocates
// nothing, and carving a new block of 64 probers costs at most two
// allocations — the probers and their stages — however many stages a
// prober has and with no closure per prober.
func TestProberArenaAllocs(t *testing.T) {
	h := newHarness(10e6, 200, false)
	cfg := Config{Design: DropInBand, Kind: SlowStart, Eps: 0}
	a := NewProberArena(h.s, &h.pool)
	sink := &probeSink{pool: &h.pool}
	route := []netsim.Receiver{h.link, sink}
	accepted := 0
	done := func(r Result) {
		if r.Accepted {
			accepted++
		}
	}
	attempt := func() {
		sink.p = a.Get()
		sink.p.Reinit(cfg, 0, 256e3, 125, route, done)
		sink.p.Start(h.s.Now())
		h.s.Run(h.s.Now() + 6*sim.Second)
		a.Put(sink.p)
	}
	attempt() // warm the packet pool, the lanes, the event queue, the free list
	if recycled := testing.AllocsPerRun(5, attempt); recycled != 0 {
		t.Fatalf("recycled attempt: %.0f allocs, want 0", recycled)
	}
	if accepted != 7 { // AllocsPerRun makes one warm-up call of its own
		t.Fatalf("%d of 7 probes accepted on an idle link", accepted)
	}
	a.Get() // the free prober, so that every later Get carves
	carve := func() {
		for range proberBlockMax {
			a.Get().Reinit(cfg, 0, 256e3, 125, route, done)
		}
	}
	for len(a.blocks[len(a.blocks)-1]) < proberBlockMax || a.used < proberBlockMax {
		a.Get().Reinit(cfg, 0, 256e3, 125, route, done) // up to full blocks of 64
	}
	perBlock := testing.AllocsPerRun(8, carve)
	t.Logf("new block of %d five-stage probers: %.0f allocs", proberBlockMax, perBlock)
	if perBlock > 2 || perBlock < 1 {
		t.Fatalf("new block of %d probers: %.0f allocs, want 1 to 2", proberBlockMax, perBlock)
	}
	if p := a.Get(); a.at(p.idx) != p || p.idx != uint32(len(a.blocks)-1)<<proberBlockBits {
		t.Fatalf("prober index %d does not name its slot, the first of block %d", p.idx, len(a.blocks)-1)
	}
}
