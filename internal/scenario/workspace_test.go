package scenario

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// reuseCfg is a short congested scenario with real dynamics — drops,
// probes, retries, flow deaths — so the byte-identity comparison exercises
// every recycled structure.
func reuseCfg(seed uint64) Config {
	return Config{
		Links:           []LinkSpec{{RateBps: 1e6, Delay: 10 * sim.Millisecond, BufferPkts: 20}},
		InterArrival:    1,
		LifetimeSec:     20,
		Duration:        50 * sim.Second,
		Warmup:          10 * sim.Second,
		MaxRetries:      2,
		PrepopulateUtil: 0.8,
		Seed:            seed,
	}
}

// reuseSequence is a heterogeneous run sequence: repeated seeds on one
// shape (exercising reset), then method/queue/topology changes (exercising
// rewiring and, for the topology change, full rebuild).
func reuseSequence() []Config {
	seq := []Config{
		reuseCfg(1), reuseCfg(2), reuseCfg(3),
	}
	mark := reuseCfg(4)
	mark.AC.Design = admission.Design{Signal: admission.Mark, Band: admission.OutOfBand}
	seq = append(seq, mark)
	mb := reuseCfg(5)
	mb.Method = MBAC
	seq = append(seq, mb)
	pv := reuseCfg(6)
	pv.Method = Passive
	seq = append(seq, pv)
	// TCP flows are rebuilt each run, after a run without them and before
	// one without them.
	tc := reuseCfg(10)
	tc.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}, {TCPFlows: 5}}
	seq = append(seq, tc)
	red := reuseCfg(7)
	red.Queue = QueueRED
	seq = append(seq, red)
	multi := reuseCfg(8)
	multi.Links = []LinkSpec{
		{RateBps: 1e6, Delay: 5 * sim.Millisecond, BufferPkts: 20},
		{RateBps: 1e6, Delay: 5 * sim.Millisecond, BufferPkts: 20},
	}
	multi.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: -1, Path: []int{0, 1}}}
	seq = append(seq, multi)
	// Back to the first shape: the multi-link runner cannot be reused, so
	// this also covers rebuild-then-reuse.
	seq = append(seq, reuseCfg(9), reuseCfg(1))
	return seq
}

// TestWorkspaceByteIdentical pins the tentpole's correctness claim: a
// Workspace running an arbitrary config sequence returns Metrics deeply
// equal to fresh per-run construction, including a repeated config at the
// end (recycled state carries nothing across runs).
func TestWorkspaceByteIdentical(t *testing.T) {
	ws := NewWorkspace()
	for i, cfg := range reuseSequence() {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: fresh: %v", i, err)
		}
		reused, err := ws.Run(cfg)
		if err != nil {
			t.Fatalf("run %d: workspace: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("run %d (%s seed %d): workspace metrics diverge from fresh run\nfresh:  %+v\nreused: %+v",
				i, cfg.Method, cfg.Seed, fresh, reused)
		}
	}
}

// TestWorkspaceSeedsParallelIdentical checks the grid entry point: the
// per-worker workspaces of RunSeedsObserved must not change the aggregate,
// for any worker count.
func TestWorkspaceSeedsParallelIdentical(t *testing.T) {
	cfg := reuseCfg(0)
	seeds := DefaultSeeds(5)
	base, _, err := RunSeedsObserved(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, _, err := RunSeedsObserved(cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d aggregate differs from sequential", workers)
		}
	}
}

// TestWorkspaceAllocReduction is the regression guard on the perf half of
// the tentpole: the reused-worker path must allocate at most 70% of what
// per-run construction allocates for the same cells (ISSUE criterion:
// >= 30% cut in allocs/cell).
func TestWorkspaceAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement runs several simulations")
	}
	seeds := DefaultSeeds(3)
	var i int
	fresh := testing.AllocsPerRun(3, func() {
		c := reuseCfg(seeds[i%len(seeds)])
		i++
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	})
	ws := NewWorkspace()
	for _, sd := range seeds { // prime the slabs and the flow freelist
		if _, err := ws.Run(reuseCfg(sd)); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	reused := testing.AllocsPerRun(3, func() {
		c := reuseCfg(seeds[i%len(seeds)])
		i++
		if _, err := ws.Run(c); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/cell: fresh %.0f, reused %.0f (%.0f%%)", fresh, reused, 100*reused/fresh)
	if reused > 0.7*fresh {
		t.Fatalf("reused-worker path allocates %.0f/run vs %.0f fresh (%.0f%%), want <= 70%%",
			reused, fresh, 100*reused/fresh)
	}
}

// TestSerialRoutesShared pins the route-template unification: at K = 1
// every live flow's table slot names its class, whose one template (same
// backing array, not a per-flow copy) all its packets carry, and a Workspace whose next config keeps the
// link count — so the Runner is reset, not rebuilt — but changes the class
// and path layout routes the new run over fresh templates.
func TestSerialRoutesShared(t *testing.T) {
	links := []LinkSpec{
		{RateBps: 1e6, Delay: 5 * sim.Millisecond, BufferPkts: 20},
		{RateBps: 1e6, Delay: 5 * sim.Millisecond, BufferPkts: 20},
	}
	first := reuseCfg(1)
	first.Links = links
	first.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: -1, Path: []int{0, 1}}}
	second := reuseCfg(2)
	second.Links = links
	second.Classes = []ClassSpec{
		{Preset: trafgen.EXP1, Eps: -1, Path: []int{1}},
		{Preset: trafgen.EXP2, Eps: -1, Path: []int{1, 0}},
	}

	ws := NewWorkspace()
	if _, err := ws.Run(first); err != nil {
		t.Fatal(err)
	}
	r := ws.r
	d := r.doms[0]
	old := d.tmpl[0]
	// A freed flow's slot is empty; the live ones all route over the template.
	live := 0
	for _, sl := range d.flows {
		if sl.f == nil {
			continue
		}
		if sl.class != sl.f.class || &d.tmpl[sl.class][0] != &old[0] {
			t.Fatalf("flow %d of class %d sits in a slot of class %d, not on the runner's class template", sl.f.id, sl.f.class, sl.class)
		}
		live++
	}
	if live < 2 {
		t.Fatalf("test setup: %d live flows at the end of the run, want >= 2", live)
	}

	reused, err := ws.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if ws.r != r {
		t.Fatal("test setup: workspace rebuilt the runner instead of resetting it")
	}
	sink := netsim.Receiver((*sinkRecv)(d))
	want := [][]netsim.Receiver{{r.links[1], sink}, {r.links[1], r.links[0], sink}}
	if !reflect.DeepEqual(d.tmpl, want) {
		t.Fatalf("templates after reuse = %v, want %v", d.tmpl, want)
	}
	if &d.tmpl[0][0] == &old[0] || len(old) != 3 || old[0] != netsim.Receiver(r.links[0]) {
		t.Fatal("reset rewrote the previous run's template in place")
	}
	fresh, err := Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused runner with a new class layout diverges from a fresh run\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// TestAllocsPerFlowArrival is the ceiling on the per-flow allocation bill:
// heap allocations of a whole run divided by the flows it offered (the IDs it
// issued; the per-packet path allocates nothing, so flows are what a run pays
// for), fresh and on a primed Workspace, plus the marginal bill — what running
// twice as long adds, over the flows that adds, which must be at least three
// quarters of the short run's. A flow's state, source and table slot go back
// to the domain once nothing can reach the flow and serve the next one, so
// after the first generation a flow costs next to nothing. Three mixes:
//
// "rejected": five arrivals a second on a 1 Mb/s link, nearly all rejected and
// retried: 0.42 allocations per flow fresh — the Runner, its slabs and pools
// and the probers that probe at once, spread over 261 flows — 0.00 marginal
// and 0.08 reused (0.43, 0.02 and 0.08 while flow states lived to the end of
// the run).
//
// "admitted": a 10 Mb/s link that admits most flows, EXP1 sources from slabs
// of 64 with one tick callback: 0.75 fresh over 150 flows, 0.01 marginal,
// 0.13 reused (0.78, 0.04 and 0.17).
//
// "cbr": the same link with a CBR preset, whose sources now come from slabs
// and are recycled the same way: 0.72 fresh, 0.00 marginal, 0.12 reused
// (2.64, 1.90 and 2.05 when each flow had its own CBR and tick callback).
//
// The fresh ceilings are those figures plus ~15 % for a different seed or
// flow mix.
func TestAllocsPerFlowArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement runs several simulations")
	}
	for _, row := range []struct {
		name                  string
		preset                trafgen.Preset
		rateBps, interArrival float64
		prepopulate           float64
		fresh, steady, reused float64 // ceilings, allocations per flow
	}{
		{"rejected", trafgen.EXP1, 1e6, 0.2, 0.8, 0.48, 0.1, 0.2},
		{"admitted", trafgen.EXP1, 10e6, 0.4, 0.2, 0.86, 0.1, 0.2},
		{"cbr", trafgen.NewCBRPreset(128e3, 125), 10e6, 0.4, 0.2, 0.83, 0.1, 0.2},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := reuseCfg(3)
			cfg.Classes = []ClassSpec{{Preset: row.preset, Eps: -1}}
			cfg.Links[0].RateBps, cfg.InterArrival, cfg.PrepopulateUtil = row.rateBps, row.interArrival, row.prepopulate
			cfg = cfg.WithDefaults()
			var flows int
			var accepted int64
			freshRun := func(cfg Config) float64 {
				return testing.AllocsPerRun(2, func() {
					r, err := NewRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					accepted = r.Run().Classes[0].Accepted
					d := r.doms[0]
					flows = d.flowBase + len(d.flows) // IDs issued
				})
			}
			long := cfg
			long.Duration *= 2
			freshLong, flowsLong := freshRun(long), flows
			fresh := freshRun(cfg)
			perSteady := (freshLong - fresh) / float64(flowsLong-flows)
			t.Logf("steady state: %.0f allocs for flows %d..%d, %.2f each", freshLong-fresh, flows, flowsLong, perSteady)
			if flowsLong < 2*flows-flows/4 || perSteady > row.steady {
				t.Fatalf("allocs per flow after the first probe generation: %.2f over %d flows (ceiling %.2f)", perSteady, flowsLong-flows, row.steady)
			}
			ws := NewWorkspace()
			if _, err := ws.Run(cfg); err != nil { // prime slabs, freelist, probers
				t.Fatal(err)
			}
			reused := testing.AllocsPerRun(2, func() {
				if _, err := ws.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			perFresh, perReused := fresh/float64(flows), reused/float64(flows)
			t.Logf("%d flows, %d accepted in the window: %.2f allocs/flow fresh, %.2f reused", flows, accepted, perFresh, perReused)
			if perFresh > row.fresh || perReused > row.reused {
				t.Fatalf("allocs per flow arrival: %.2f fresh (ceiling %.2f), %.2f reused (ceiling %.2f)", perFresh, row.fresh, perReused, row.reused)
			}
			if admits := row.name != "rejected"; admits != (accepted > int64(flows)/3) {
				t.Fatalf("the %s mix accepted %d of %d flows", row.name, accepted, flows)
			}
		})
	}
}
