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
// every flow of a class carries the class's one template (same backing
// array, not a per-flow copy), and a Workspace whose next config keeps the
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
	byClass := map[int]*flowState{}
	for _, f := range d.flows {
		if g, ok := byClass[f.class]; ok && &g.route[0] != &f.route[0] {
			t.Fatalf("flows %d and %d of class %d hold separate route arrays", g.id, f.id, f.class)
		}
		byClass[f.class] = f
	}
	if len(d.flows) < 2 || &d.flows[0].route[0] != &old[0] {
		t.Fatalf("flows do not carry the runner's class template (%d flows)", len(d.flows))
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
// heap allocations of a whole run divided by the flows it offered (the
// per-packet path allocates nothing, so flows are what a run pays for), fresh
// and on a primed Workspace, plus the marginal bill — what running twice as
// long adds, over the flows that adds, which must be at least three quarters
// of the short run's. Three mixes, because a flow's bill has two parts:
//
// "rejected": five arrivals a second on a 1 Mb/s link, nearly all rejected and
// retried. The bill is probers, 7.5 allocations each: 96 of them serve 261
// flows (3.3 per flow; 19.2 before probers were recycled inside a run), and
// the longer run's deeper back-off needs 12 more (0.36 per added flow).
//
// "admitted": a 10 Mb/s link that admits most flows. An admitted flow used to
// cost two closures, its source's tick and its emit hook (4.19 per flow fresh,
// 1.74 marginal, 1.03 reused); now sources come 64 to a slab with one tick
// callback and every flow emits through the domain's one hook, the flow named
// by id, so an admitted flow costs a 32nd of an allocation: 0.04 marginal,
// 0.17 reused, and 2.36 fresh — the Runner, its slabs and pools and the first
// generation of probers, spread over 150 flows.
//
// "cbr": the same link with a CBR preset, whose sources are not slab-built: an
// admitted flow costs its CBR and that one's tick callback and no emit hook —
// 1.89 marginal (2.87 when each flow had its hook), 2.05 reused, 3.61 fresh.
//
// The ceilings leave ~15 % for a different seed or flow mix.
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
		{"rejected", trafgen.EXP1, 1e6, 0.2, 0.8, 4, 0.5, 0.2},
		{"admitted", trafgen.EXP1, 10e6, 0.4, 0.2, 2.8, 0.1, 0.2},
		{"cbr", trafgen.NewCBRPreset(128e3, 125), 10e6, 0.4, 0.2, 4.2, 2.3, 2.3},
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
					flows = len(r.doms[0].flows)
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
