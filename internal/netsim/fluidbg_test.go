package netsim

import (
	"math"
	"testing"

	"eac/internal/fluid"
	"eac/internal/sim"
	"eac/internal/stats"
)

func newBgRig(rateBps float64) (*sim.Sim, *Link, *FluidBackground) {
	s := sim.New()
	l := NewLink(s, "bg", rateBps, sim.Millisecond, NewPriorityPushout(64))
	bg := NewFluidBackground(l, fluid.QueueDropTail, 400, stats.NewStream(1, "fluidbg"))
	return s, l, bg
}

// TestFluidBackgroundResidualRate pins the serialization contract: the
// foreground is served at C - F(t), floored at (1-maxShare)*C, via the
// link's ns-per-bit factor, and removing the background restores the full
// rate exactly.
func TestFluidBackgroundResidualRate(t *testing.T) {
	_, l, bg := newBgRig(10e6)
	full := l.nsPerBit
	if full != float64(sim.Second)/10e6 {
		t.Fatalf("attach changed the idle link rate: %v", full)
	}

	bg.Add(0, 5e6)
	if got, want := l.nsPerBit, float64(sim.Second)/5e6; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("residual at F=C/2: nsPerBit %v, want %v", got, want)
	}

	// Saturating background hits the maxShare floor.
	bg.Add(0, 45e6) // offered 50 Mb/s on a 10 Mb/s link
	floor := float64(sim.Second) / ((1 - maxShare) * 10e6)
	if got := l.nsPerBit; math.Abs(got-floor)/floor > 0.25 {
		t.Errorf("overloaded link should serve foreground near the floor rate: nsPerBit %v, floor %v", got, floor)
	}
	if l.nsPerBit > floor {
		t.Errorf("foreground below the maxShare floor: nsPerBit %v > floor %v", l.nsPerBit, floor)
	}

	bg.Add(0, -50e6)
	if l.nsPerBit != full {
		t.Errorf("removing all background did not restore the full rate: %v vs %v", l.nsPerBit, full)
	}
	if bg.Rate() != 0 {
		t.Errorf("rate after symmetric add/remove: %v", bg.Rate())
	}
}

// TestFluidBackgroundIntegrals pins the lazy piecewise-constant
// integrals: exact delivered/offered bits across rate changes, and
// ResetWindow starting a fresh measurement epoch.
func TestFluidBackgroundIntegrals(t *testing.T) {
	_, _, bg := newBgRig(10e6)
	bg.Add(0, 2e6)
	bg.Add(1*sim.Second, 2e6) // 2 Mb/s over [0,1), 4 Mb/s over [1,2)
	if got, want := bg.OfferedBits(2*sim.Second), 6e6; math.Abs(got-want) > 1 {
		t.Errorf("offered integral: %v, want %v", got, want)
	}
	// Under capacity with a 400-packet buffer the fluid loses nothing.
	if got, want := bg.DeliveredBits(2*sim.Second), 6e6; math.Abs(got-want) > 1 {
		t.Errorf("delivered integral: %v, want %v", got, want)
	}

	bg.ResetWindow(2 * sim.Second)
	if bg.DeliveredBits(2*sim.Second) != 0 || bg.OfferedBits(2*sim.Second) != 0 {
		t.Error("ResetWindow did not zero the integrals")
	}
	if got, want := bg.OfferedBits(3*sim.Second), 4e6; math.Abs(got-want) > 1 {
		t.Errorf("offered integral after reset: %v, want %v", got, want)
	}

	// In overload the delivered rate saturates near capacity.
	before := bg.DeliveredBits(3 * sim.Second)
	bg.Add(3*sim.Second, 16e6) // offered 20 Mb/s on 10 Mb/s
	del := bg.DeliveredBits(4*sim.Second) - before
	if del > 10.5e6 || del < 9e6 {
		t.Errorf("overloaded delivered rate %v bits/s, want ~capacity", del)
	}
}

// TestFluidBackgroundCongestion pins the per-arrival dice: foreground
// packets are dropped at the diffusion loss probability of the background
// load, and marking designs mark instead of dropping below overload.
func TestFluidBackgroundCongestion(t *testing.T) {
	_, _, bg := newBgRig(10e6)
	if d, m := bg.arrival(Data); d || m {
		t.Fatal("idle background dropped or marked")
	}

	bg.Add(0, 15e6) // rho = 1.5
	wantP := fluid.MarkProb(fluid.QueueDropTail, 1.5, 400)
	if math.Abs(bg.PDrop()-wantP) > 1e-12 {
		t.Fatalf("pDrop %v, want %v", bg.PDrop(), wantP)
	}
	n, drops := 20000, 0
	for i := 0; i < n; i++ {
		if d, _ := bg.arrival(Data); d {
			drops++
		}
	}
	got := float64(drops) / float64(n)
	if math.Abs(got-wantP) > 0.02 {
		t.Errorf("empirical drop fraction %v, want ~%v", got, wantP)
	}

	// Marking design below physical overload: marks, no drops.
	_, _, mbg := newBgRig(10e6)
	mbg.Marking = true
	mbg.VQFactor = 0.5 // shadow queue saturates at half the real load
	mbg.Add(0, 8e6)    // rho = 0.8 real, 1.6 shadow
	if mbg.PDrop() > 1e-6 {
		t.Errorf("below capacity the physical drop prob should be ~0, got %v", mbg.PDrop())
	}
	if mbg.PMark() < 0.1 {
		t.Errorf("shadow overload should mark, pMark %v", mbg.PMark())
	}
	marks := 0
	for i := 0; i < n; i++ {
		if d, m := mbg.arrival(Data); d {
			t.Fatal("marking design dropped below overload")
		} else if m {
			marks++
		}
	}
	if f := float64(marks) / float64(n); math.Abs(f-mbg.PMark()) > 0.02 {
		t.Errorf("empirical mark fraction %v, want ~%v", f, mbg.PMark())
	}

	// Virtual dropping folds the probe's mark fate into a drop.
	mbg.VDropProbes = true
	mbg.Add(0, 0) // recompute
	pd, pm := mbg.dropP[Probe], mbg.markP[Probe]
	if pm != 0 || pd < mbg.PMark() {
		t.Errorf("vdrop probes: dropP=%v markP=%v, want drop >= mark prob and no marking", pd, pm)
	}
	if mbg.markP[Data] != mbg.PMark() {
		t.Errorf("vdrop must not change data marking: %v vs %v", mbg.markP[Data], mbg.PMark())
	}
}

// TestFluidBackgroundHotPathZeroAlloc extends the steady-state zero-alloc
// contract to hybrid links: the per-arrival dice and the per-event rate
// changes allocate nothing.
func TestFluidBackgroundHotPathZeroAlloc(t *testing.T) {
	_, _, bg := newBgRig(10e6)
	bg.Marking = true
	bg.Add(0, 12e6)
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		bg.arrival(Data)
		bg.arrival(Probe)
		now += sim.Millisecond
		bg.Add(now, 128e3)
		bg.Add(now, -128e3)
		bg.DeliveredBits(now)
	})
	if allocs != 0 {
		t.Fatalf("fluid background hot path allocated %v times per iteration, want 0", allocs)
	}
}

// TestFluidBackgroundLinkIntegration drives packets through a link with a
// congested fluid background and checks the drops land in LinkStats, and
// that Reset detaches the background.
func TestFluidBackgroundLinkIntegration(t *testing.T) {
	s, l, bg := newBgRig(10e6)
	pool := &Pool{}
	l.OnDrop = func(_ sim.Time, p *Packet) { pool.Put(p) }
	bg.Add(0, 20e6) // rho 2: pDrop = 0.5
	route := []Receiver{l, &poolSink{pool: pool}}

	var ev *sim.Event
	sent := 0
	ev = sim.NewEvent(func(now sim.Time) {
		if sent >= 2000 {
			return
		}
		sent++
		p := pool.Get()
		p.Kind = Data
		p.Band = BandData
		p.Size = 125
		p.Route = route
		Send(now, p)
		s.Schedule(ev, now+sim.Millisecond)
	})
	s.Schedule(ev, 0)
	s.Run(3 * sim.Second)

	st := l.StatsAt(s.Now())
	frac := float64(st.Dropped[Data]) / float64(st.Arrived[Data])
	if math.Abs(frac-bg.PDrop()) > 0.05 {
		t.Errorf("link-level drop fraction %v, want ~%v", frac, bg.PDrop())
	}

	l.Reset(10e6, sim.Millisecond, pool.Put)
	if l.Bg != nil {
		t.Error("Reset must detach the fluid background")
	}
	if l.nsPerBit != float64(sim.Second)/10e6 {
		t.Error("Reset must restore the full serialization rate")
	}
}

// TestFluidRateChangeKeepsServiceTimes: a background rate change retimes
// neither the packet in service nor one whose service began, unobserved,
// before the change. Three 1 ms packets queue at t = 0 and nothing looks at
// the link until the rate halves at 2.5 ms: the first two must have been
// served and the third started at 2 ms at the full rate (done at 3 ms — Add
// syncs the link before it rescales); only the fourth, which starts at 3 ms,
// takes 2 ms.
func TestFluidRateChangeKeepsServiceTimes(t *testing.T) {
	s := sim.New()
	const delay = 20 * sim.Millisecond // no delivery wakes the link before the change
	l := NewLink(s, "bg", 1e6, delay, NewDropTail(8))
	bg := NewFluidBackground(l, fluid.QueueDropTail, 400, stats.NewStream(1, "fluidbg"))
	var got []record
	route := []Receiver{l, recordSink{&got}}
	for i := int64(0); i < 4; i++ {
		Send(0, &Packet{Seq: i, Size: 125, Route: route})
	}
	s.Call(2500*sim.Microsecond, func(now sim.Time) { bg.Add(now, 0.5e6) })
	s.RunAll()
	var want []record
	for i, end := range []sim.Time{1, 2, 3, 5} {
		want = append(want, record{hop: -1, seq: int64(i), at: end*sim.Millisecond + delay})
	}
	if _, diff := diffRecords(want, got, -1); diff != "" {
		t.Fatalf("deliveries retimed by the rate change: %s", diff)
	}
}
