package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/experiments"
	"eac/internal/scenario"
	"eac/internal/sim"
)

var update = flag.Bool("update", false, "regenerate golden files instead of diffing against them")

// toleranceFor is the tolerance policy (documented in TESTING.md):
// deterministic numeric outputs — the fluid-model solve — are compared
// exactly; simulator-backed experiments get a small relative band that
// absorbs float-formatting quantization but is far below the drift any
// behavioural change produces in a chaotic seeded simulation.
func toleranceFor(id string) Tolerance {
	if id == "figure1" {
		return Tolerance{} // pure numerics: exact
	}
	return Tolerance{Rel: 2e-3}
}

func goldenPath(id string) string {
	return filepath.Join("testdata", id+".golden.csv")
}

// checkGolden diffs got against the named golden, or rewrites it under
// -update.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := goldenPath(id)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test ./internal/conformance -update`): %v", err)
	}
	if err := Compare(string(want), got, toleranceFor(id)); err != nil {
		t.Fatalf("%s drifted from %s — if the change is intentional, rerun with -update:\n%s", id, path, err)
	}
}

// TestGoldenFigures re-runs every figure/table experiment at the reduced
// deterministic conformance scale, checks the table's shape — unique IDs
// and titles, every row as wide as the header — and diffs its CSV against
// the golden.
//
// figure2_hybrid's _hyb columns, and nothing else, were re-recorded at
// ResultsVersion v6: the fluid population departs on one clock, which keeps
// its law but moves its sample paths (EXPERIMENTS "Results version v6").
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression re-runs every experiment; skipped in -short")
	}
	seen := map[string]bool{}
	for _, ex := range experiments.All() {
		if seen[ex.ID] || seen[ex.Title] {
			t.Errorf("%s: duplicate id or title %q", ex.ID, ex.Title)
		}
		seen[ex.ID], seen[ex.Title] = true, true
		t.Run(ex.ID, func(t *testing.T) {
			tbl, err := ex.Run(experiments.Conformance())
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range tbl.Rows {
				if len(row) != len(ex.Header) {
					t.Fatalf("row %d has %d cells, header %d: %v", i, len(row), len(ex.Header), row)
				}
			}
			checkGolden(t, ex.ID, tbl.CSV())
		})
	}
}

// scenarioBasicConfig is the single-scenario golden: the basic Section 4.1
// setup (EXP1, slow-start, in-band dropping) at conformance scale.
func scenarioBasicConfig() scenario.Config {
	return scenario.Config{
		Method:          scenario.EAC,
		AC:              admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.02},
		InterArrival:    0.35,
		LifetimeSec:     30,
		Duration:        120 * sim.Second,
		Warmup:          30 * sim.Second,
		PrepopulateUtil: 0.75,
	}
}

// scenarioCSV runs the config over the seeds and renders the headline
// metrics, one row per seed plus the aggregate mean.
func scenarioCSV(t *testing.T, cfg scenario.Config, seeds []uint64) string {
	t.Helper()
	mm, err := scenario.RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("seed,utilization,loss_prob,blocking,probe_share,decided\n")
	row := func(label string, m scenario.Metrics) {
		fmt.Fprintf(&b, "%s,%.4f,%.3e,%.3f,%.4f,%d\n",
			label, m.Utilization, m.DataLossProb, m.BlockingProb, m.ProbeShare, m.Decided)
	}
	for i, m := range mm.Runs {
		row(fmt.Sprintf("%d", seeds[i]), m)
	}
	row("mean", mm.Mean)
	return b.String()
}

// TestGoldenScenarioBasic pins one raw scenario run (below the experiment
// layer) so runner/netsim drift is caught even if the sweep grids change.
func TestGoldenScenarioBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	got := scenarioCSV(t, scenarioBasicConfig(), scenario.DefaultSeeds(2))
	checkGolden(t, "scenario_basic", got)
}

// TestSeededDivergenceFails demonstrates the harness catching a
// behavioural perturbation: shrinking the bottleneck buffer raises the
// drop probability, and the same seeds must now fail the golden diff with
// a readable report naming the drifted columns.
func TestSeededDivergenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if *update {
		t.Skip("perturbation check is meaningless while rewriting goldens")
	}
	cfg := scenarioBasicConfig()
	cfg.Links = []scenario.LinkSpec{{BufferPkts: 25}} // default 200: many more drops
	got := scenarioCSV(t, cfg, scenario.DefaultSeeds(2))
	want, err := os.ReadFile(goldenPath("scenario_basic"))
	if err != nil {
		t.Fatal(err)
	}
	diffErr := Compare(string(want), got, toleranceFor("scenario_basic"))
	if diffErr == nil {
		t.Fatal("perturbed drop behaviour matched the golden; the harness is not sensitive")
	}
	msg := diffErr.Error()
	if !strings.Contains(msg, "loss_prob") {
		t.Fatalf("diff report does not name the drifted loss column:\n%s", msg)
	}
	t.Logf("perturbation correctly rejected:\n%s", msg)
}

// TestGoldenUpdateReproducible checks the -update contract: regenerating
// a golden from the same code yields byte-identical content.
func TestGoldenUpdateReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	a := scenarioCSV(t, scenarioBasicConfig(), scenario.DefaultSeeds(2))
	b := scenarioCSV(t, scenarioBasicConfig(), scenario.DefaultSeeds(2))
	if a != b {
		t.Fatalf("two regenerations differ:\n%s\nvs\n%s", a, b)
	}
}
