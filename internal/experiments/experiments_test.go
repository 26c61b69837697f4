package experiments

import (
	"fmt"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
)

func TestTableString(t *testing.T) {
	tbl := Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"a", "long_column"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "a note",
	}
	s := tbl.String()
	if !strings.Contains(s, "== t: demo ==") {
		t.Fatalf("missing title: %q", s)
	}
	if !strings.Contains(s, "a note") {
		t.Fatal("missing notes")
	}
	// Columns aligned: "333" is wider than header "a".
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(lines[1], "a  ") {
		t.Fatalf("header alignment: %q", lines[1])
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{Header: []string{"x", "y"}, Rows: [][]string{{"1", "2"}}}
	if got := tbl.CSV(); got != "x,y\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("expected 18 experiments (9 figures + figure2_hybrid + 4 tables + figure11 + 2 policy + flash_crowd), got %d", len(all))
	}
	for _, ex := range all {
		if ex.points == nil || ex.ID == "" || len(ex.Header) == 0 {
			t.Fatalf("malformed experiment %+v", ex)
		}
		if got, err := Lookup(ex.ID); err != nil || got.Title != ex.Title {
			t.Fatalf("Lookup(%s) = %q, %v", ex.ID, got.Title, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestNegativeSeedsIsAnError: the -seeds flag lands in Options.Seeds, so a
// negative count is user input. Every consumer of the seed list must
// answer it with an error naming the field, not with DefaultSeeds'
// makeslice panic.
func TestNegativeSeedsIsAnError(t *testing.T) {
	for _, n := range []int{-1, -2, -1 << 40} {
		o := Conformance()
		o.Seeds = n
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"SeedValues", func() error { _, err := o.SeedValues(); return err }},
			{"table3", func() error { _, err := lookup(t, "table3").Run(o); return err }},
			{"figure1", func() error { _, err := lookup(t, "figure1").Run(o); return err }},
		} {
			err := c.call()
			if err == nil || !strings.Contains(err.Error(), "Seeds") {
				t.Errorf("Seeds=%d: %s returned %v, want an error naming Seeds", n, c.name, err)
			}
		}
	}
}

func TestOptionsModes(t *testing.T) {
	q := Quick()
	p := Paper()
	nSeeds := func(o Options) int {
		t.Helper()
		s, err := o.seeds()
		if err != nil {
			t.Fatal(err)
		}
		return len(s)
	}
	if nSeeds(q) != 1 || nSeeds(p) != 7 {
		t.Fatalf("seed defaults: quick=%d paper=%d", nSeeds(q), nSeeds(p))
	}
	if q.duration() != 800*sim.Second || p.duration() != 14000*sim.Second {
		t.Fatal("duration defaults")
	}
	if q.tau(3.5) != 0.35 || p.tau(3.5) != 3.5 {
		t.Fatal("tau scaling")
	}
	q.Seeds = 3
	if nSeeds(q) != 3 {
		t.Fatal("seed override")
	}
	q.Duration = 5 * sim.Second
	if q.duration() != 5*sim.Second {
		t.Fatal("duration override")
	}
}

func TestEpsSweepsMatchPaper(t *testing.T) {
	p := Paper()
	in := p.epsFor(admission.DropInBand)
	out := p.epsFor(admission.MarkOutOfBand)
	wantIn := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	wantOut := []float64{0, 0.05, 0.10, 0.15, 0.20}
	for i, v := range wantIn {
		if in[i] != v {
			t.Fatalf("in-band sweep %v", in)
		}
	}
	for i, v := range wantOut {
		if out[i] != v {
			t.Fatalf("out-of-band sweep %v", out)
		}
	}
	if fixedEps(admission.DropInBand) != 0.01 || fixedEps(admission.DropOutOfBand) != 0.05 {
		t.Fatal("figure 9 fixed thresholds")
	}
}

// TestMiniExperimentPipeline runs one real experiment end-to-end at a tiny
// scale to exercise the full path: scenario building, seeding, metric
// extraction and table assembly.
func TestMiniExperimentPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opts := Quick()
	opts.Duration = 120 * sim.Second
	opts.Warmup = 30 * sim.Second
	var lines int
	opts.Progress = func(string, ...any) { lines++ }
	tbl, err := lookup(t, "table3").Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table3 rows = %d, want one per design", len(tbl.Rows))
	}
	if lines != 4 {
		t.Fatalf("progress lines = %d", lines)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("ragged row %v", row)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	tbl, err := lookup(t, "figure1").Run(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("too few points: %d", len(tbl.Rows))
	}
	// First point healthy, last point collapsed.
	var first, last float64
	if _, err := fmt.Sscan(tbl.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(tbl.Rows[len(tbl.Rows)-1][1], &last); err != nil {
		t.Fatal(err)
	}
	if first < 0.5 || last > 0.01 {
		t.Fatalf("figure1 shape: first=%v last=%v", first, last)
	}
}
