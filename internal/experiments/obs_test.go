package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"eac/internal/obs"
	"eac/internal/sim"
)

// TestObsDisabledByteIdentical: an Options.Obs that sets fields but not
// Enabled is no observation at all — a whole experiment (Table 3) keeps
// identical rows and byte-identical progress lines.
func TestObsDisabledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	run := func(oc obs.Config) (Table, []string) {
		o := tinyOpts()
		o.Workers = 4
		o.Obs = oc
		return runLogged(t, lookup(t, "table3"), o)
	}
	tblPlain, logPlain := run(obs.Config{})
	tblObs, logObs := run(obs.Config{MetricsInterval: sim.Second, TraceCapacity: 1 << 10})
	if !reflect.DeepEqual(tblPlain, tblObs) {
		t.Fatalf("table3 diverged with a disabled obs config:\n%s\n%s", tblPlain, tblObs)
	}
	if !reflect.DeepEqual(logPlain, logObs) {
		t.Fatalf("progress logs diverged:\n%q\n%q", logPlain, logObs)
	}
}

// TestObsEnabledSweepWritesArtifacts checks the Options.Obs plumbing end
// to end: an enabled collector makes every point×seed run write its own
// label+seed-named artifacts under Obs.Dir.
func TestObsEnabledSweepWritesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	o := tinyOpts()
	o.Seeds = 2
	o.Obs = obs.Config{Enabled: true, Dir: dir, MetricsInterval: sim.Second}

	if _, err := declared(basicPoint(o, "pt eps=0.01", 0.01)).Run(o); err != nil {
		t.Fatal(err)
	}
	seeds, err := o.SeedValues()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		p := filepath.Join(dir, fmt.Sprintf("pt-eps-0.01-s%d-series.csv", seed))
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			ents, _ := os.ReadDir(dir)
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("missing artifact %s (err %v); dir has %v", p, err, names)
		}
	}
}

// TestObsTracePathNeedsOneRun: Options.Obs.TracePath names one file, so an
// experiment with more than one scenario run — two seeds of a point, or
// two points — is refused before it runs instead of every run overwriting
// the same trace.
func TestObsTracePathNeedsOneRun(t *testing.T) {
	o := tinyOpts()
	dir := t.TempDir()
	o.Obs = obs.Config{Enabled: true, Dir: dir, TraceCapacity: 16, TracePath: filepath.Join(dir, "t.jsonl")}
	a, b := basicPoint(o, "a", 0.01), basicPoint(o, "b", 0.05)
	for _, c := range []struct {
		name  string
		seeds int
		ex    Experiment
	}{{"two seeds", 2, declared(a)}, {"two points", 1, declared(a, b)}} {
		o.Seeds = c.seeds
		if _, err := c.ex.Run(o); err == nil || !strings.Contains(err.Error(), "Obs.TracePath") {
			t.Fatalf("%s sharing Obs.TracePath: err = %v, want one naming it", c.name, err)
		}
	}
}

// TestETAReporting checks that the ETA callback fires once per completed
// task — each seed of a scenario point and each Solve — with monotonically
// complete counts, independent of the Progress stream.
func TestETAReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := tinyOpts()
	o.Seeds = 2
	o.Workers = 2
	type tick struct{ done, total int }
	var ticks []tick
	o.ETA = func(done, total int, _ time.Duration) {
		ticks = append(ticks, tick{done, total})
	}
	solve := Point{Label: "c", Solve: func() ([]string, error) { return []string{"c"}, nil }}
	ex := declared(basicPoint(o, "a", 0.01), solve, basicPoint(o, "b", 0.05))
	if _, err := ex.Run(o); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 {
		t.Fatalf("ETA ticks = %d, want 5 (2 scenario points x 2 seeds + 1 solve)", len(ticks))
	}
	for i, tk := range ticks {
		if tk.done != i+1 || tk.total != 5 {
			t.Fatalf("tick %d = %+v", i, tk)
		}
	}
}

func TestFileLabel(t *testing.T) {
	for in, want := range map[string]string{
		"drop/in eps=0.01": "drop-in-eps-0.01",
		"Simple":           "Simple",
		"a b/c":            "a-b-c",
	} {
		if got := fileLabel(in); got != want {
			t.Fatalf("fileLabel(%q) = %q, want %q", in, got, want)
		}
	}
	if got := joinLabel("", "x"); got != "x" {
		t.Fatalf("joinLabel empty prefix = %q", got)
	}
	if got := joinLabel("sweep", "x"); got != "sweep-x" {
		t.Fatalf("joinLabel = %q", got)
	}
}
