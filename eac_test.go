package eac_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eac"
)

// facadeCfg is a fast scenario for exercising the public API.
func facadeCfg() eac.Config {
	return eac.Config{
		Method: eac.EAC,
		AC: eac.ACConfig{
			Design: eac.DropInBand,
			Kind:   eac.SlowStart,
			Eps:    0.01,
		},
		InterArrival:    0.35,
		LifetimeSec:     30,
		Duration:        200 * eac.Second,
		Warmup:          40 * eac.Second,
		PrepopulateUtil: 0.75,
		Seed:            1,
	}
}

func TestPublicRun(t *testing.T) {
	m, err := eac.Run(facadeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Fatalf("utilization = %v", m.Utilization)
	}
	if m.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestPublicRunSeeds(t *testing.T) {
	mm, err := eac.RunSeeds(facadeCfg(), eac.DefaultSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Runs) != 2 {
		t.Fatalf("runs = %d", len(mm.Runs))
	}
}

func TestPublicDesignsAndPresets(t *testing.T) {
	if len(eac.Designs) != 4 {
		t.Fatal("expected four designs")
	}
	for _, name := range []string{"EXP1", "EXP2", "EXP3", "EXP4", "POO1", "StarWars"} {
		if _, err := eac.LookupPreset(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eac.LookupPreset("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}
	if eac.EXP1.TokenRate != 256e3 || eac.StarWars.PktSize != 200 {
		t.Fatal("preset re-exports broken")
	}
}

func TestPublicFluid(t *testing.T) {
	res, err := eac.SolveFluid(eac.FluidParams{Tprobe: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("fluid utilization = %v", res.Utilization)
	}
}

func TestPublicFluidTransient(t *testing.T) {
	res, err := eac.SolveFluidTransient(eac.FluidTransient{
		Params:     eac.FluidParams{Tprobe: 3},
		HorizonSec: 200,
		SampleSec:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no trajectory samples")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("transient utilization = %v", res.Utilization)
	}
	if p := eac.FluidMarkProb(eac.FluidDropTail, 1.2, 40); p <= 0 || p >= 1 {
		t.Fatalf("drop-tail mark prob = %v", p)
	}
	if eac.NewFluidSolver() == nil {
		t.Fatal("nil fluid solver")
	}
}

func TestPublicHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := facadeCfg()
	cfg.Hybrid = eac.HybridConfig{Enabled: true}
	m, err := eac.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0 || m.Decided == 0 {
		t.Fatalf("hybrid run: util=%v decided=%d", m.Utilization, m.Decided)
	}
}

func TestPublicTCPShare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := eac.RunTCPShare(eac.TCPShareConfig{
		Eps:          0.02,
		InterArrival: 1,
		LifetimeSec:  30,
		Duration:     120 * eac.Second,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TCPUtil) == 0 {
		t.Fatal("no samples")
	}
}

func TestTimeHelpers(t *testing.T) {
	if eac.Seconds(2.5) != 2500*eac.Millisecond {
		t.Fatal("Seconds conversion")
	}
}

// TestDocsReferToExistingThings keeps the four long docs from naming what
// the tree does not have: every `make <target>`, results/<file>,
// cmd/<dir>, internal/<path>, Benchmark<Name> and command flag they mention
// must exist in the Makefile, on disk, as a benchmark of this package, or
// as a flag the command declares.
func TestDocsReferToExistingThings(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	declared := func(re *regexp.Regexp, src string) map[string]bool {
		set := map[string]bool{}
		for _, m := range re.FindAllStringSubmatch(src, -1) {
			set[m[1]] = true
		}
		return set
	}
	targets := declared(regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`), read("Makefile"))
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var testSrc strings.Builder
	for _, f := range tests {
		testSrc.WriteString(read(f))
	}
	benchmarks := declared(regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`), testSrc.String())
	// onDisk accepts a path, or a glob with at least one match, after
	// dropping the punctuation prose leaves behind it ("internal/obs.").
	onDisk := func(p string) bool {
		p = strings.TrimRight(p, "./-_")
		m, err := filepath.Glob(p)
		return err == nil && len(m) > 0
	}
	kinds := []struct {
		what   string
		re     *regexp.Regexp // submatch 1 is the thing named
		exists func(string) bool
	}{
		// A target is only read as one in code: after a backtick or at the
		// start of a (code block) line, so "make sure" in prose is not.
		{"Makefile target", regexp.MustCompile("(?:^|`)make ([a-z][a-z0-9-]*)"), func(s string) bool { return targets[s] }},
		{"results file", regexp.MustCompile(`\b(results/[\w.*-]+)`), onDisk},
		{"command", regexp.MustCompile(`\b(cmd/\w+)`), onDisk},
		{"internal path", regexp.MustCompile(`\b(internal/[\w./*-]+)`), onDisk},
		{"root benchmark", regexp.MustCompile(`\b(Benchmark[A-Z]\w*)`), func(s string) bool { return benchmarks[s] }},
	}
	// A command flag is a -name among the words that follow an invocation
	// of eacsim or experiments on the same line, up to the end of the code
	// span or a shell comment; the command must declare it.
	flagDecl := regexp.MustCompile(`flag\.[A-Z]\w*\("([^"]+)"`)
	flags := map[string]map[string]bool{}
	for _, c := range []string{"eacsim", "experiments"} {
		flags[c] = declared(flagDecl, read("cmd/"+c+"/main.go"))
	}
	invocation := regexp.MustCompile("(?:^|[\\s`(])(?:\\./)?(?:cmd/)?(eacsim|experiments)((?:[ \t]+[^\\s`]+)*)")
	flagArg := regexp.MustCompile(`^-([a-z][\w.-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"} {
		for i, line := range strings.Split(read(doc), "\n") {
			for _, k := range kinds {
				for _, m := range k.re.FindAllStringSubmatch(line, -1) {
					if !k.exists(m[1]) {
						t.Errorf("%s:%d: names %s %q, which does not exist", doc, i+1, k.what, m[1])
					}
				}
			}
			for _, m := range invocation.FindAllStringSubmatch(line, -1) {
				for _, arg := range strings.Fields(m[2]) {
					if strings.HasPrefix(arg, "#") {
						break
					}
					if f := flagArg.FindStringSubmatch(arg); f != nil && !flags[m[1]][strings.TrimRight(f[1], ".")] {
						t.Errorf("%s:%d: names command flag %s -%s, which does not exist", doc, i+1, m[1], f[1])
					}
				}
			}
		}
	}
}

// buildCommands builds both commands into a temporary directory. The
// commands are not inputs of this test binary, so `go test` serves a cached
// pass after a change to them: run the command tests with -count=1.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/eacsim", "./cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// assertRejected runs a built command on bad input and requires what that
// must produce: exit status 1, a message on stderr naming want, no panic,
// and no table on stdout.
func assertRejected(t *testing.T, bin string, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 {
		t.Errorf("%v: %v, want exit status 1", args, err)
	}
	if msg := stderr.String(); !strings.Contains(msg, want) || strings.Contains(msg, "panic") {
		t.Errorf("%v: stderr %q, want a message naming %s", args, msg, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v: printed a table:\n%s", args, stdout.String())
	}
}

// TestCommandsRejectBadSeeds: a seed count that selects no run (eacsim
// needs >= 1; experiments takes 0 as the mode default) must end the process
// with a message naming -seeds before anything runs — not
// scenario.DefaultSeeds' makeslice panic, and not eacsim's all-zero table
// that reads like a result.
func TestCommandsRejectBadSeeds(t *testing.T) {
	bin := buildCommands(t)
	for _, args := range [][]string{
		{"eacsim", "-seeds", "0"},
		{"eacsim", "-seeds", "-1"},
		{"eacsim", "-seeds=-9223372036854775808", "-duration", "10", "-warmup", "2"},
		{"experiments", "-run", "table3", "-seeds", "-2"},
		{"experiments", "-run", "figure1", "-seeds", "-1"},
		{"experiments", "-list", "-seeds=-9223372036854775808"},
	} {
		assertRejected(t, bin, args, "-seeds")
	}
}

// TestCommandsRejectBadConfig: a value the model cannot run reaches
// scenario.Config.Validate (or RunTCPShare's check) and ends the command
// with the field's name — not a panic in netsim or mbac, not a run that
// ignores it or prints a table of zeros, and not a shard request quietly
// run on one domain.
func TestCommandsRejectBadConfig(t *testing.T) {
	bin := buildCommands(t)
	metro := []string{"eacsim", "-topology", "metro-star", "-hosts", "600", "-duration", "20", "-warmup", "5", "-shards", "2"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"eacsim", "-link", "-1"}, "RateBps"},
		{[]string{"eacsim", "-method", "mbac", "-target", "-1"}, "MS.Target"},
		{[]string{"eacsim", "-probe", "-1"}, "ProbeDur"},
		{[]string{"eacsim", "-shards", "-1"}, "Shards"},
		{append(metro, "-hybrid"), "Shards"},
		{append(metro, "-hybrid", "-method", "mbac"), "Shards"},
		{append(metro, "-method", "mbac"), "Shards"},
		{[]string{"eacsim", "-life", "NaN"}, "LifetimeSec"},
		{[]string{"eacsim", "-life", "Inf"}, "LifetimeSec"},
		{[]string{"eacsim", "-tau", "NaN"}, "InterArrival"},
		{[]string{"eacsim", "-eps", "NaN"}, "AC.Eps"},
		{[]string{"eacsim", "-eps", "-1"}, "AC.Eps"},
		{[]string{"eacsim", "-prepopulate", "NaN"}, "PrepopulateUtil"},
		{[]string{"eacsim", "-topology", "metro-star", "-chains", "-1"}, "-chains"},
		{[]string{"eacsim", "-topology", "metro-star", "-hops", "-2"}, "-hops"},
		{[]string{"eacsim", "-topology", "metro-star", "-hosts", "-5"}, "-hosts"},
		{[]string{"eacsim", "-duration", "-5"}, "Duration"},
		{[]string{"eacsim", "-warmup", "-10", "-duration", "60"}, "Warmup"},
		{[]string{"experiments", "-out", "", "-run", "figure2", "-duration", "-5"}, "Duration"},
		{[]string{"experiments", "-out", "", "-run", "figure2", "-warmup", "-5"}, "Warmup"},
		{[]string{"experiments", "-out", "", "-run", "figure11", "-duration", "-5"}, "Duration"},
	} {
		assertRejected(t, bin, tc.args, tc.want)
	}
}
