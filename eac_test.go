package eac_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

// TestPublicDesignsAndPresets: the facade's five designs are distinct and
// its EXP1 is Table 1's.
func TestPublicDesignsAndPresets(t *testing.T) {
	designs := []eac.Design{eac.DropInBand, eac.DropOutOfBand, eac.MarkInBand, eac.MarkOutOfBand, eac.VDropOutOfBand}
	for i, a := range designs {
		for _, b := range designs[i+1:] {
			if a == b {
				t.Fatalf("design %v listed twice", a)
			}
		}
	}
	if eac.EXP1.TokenRate != 256e3 {
		t.Fatal("preset re-export broken")
	}
}

// TestPublicTCPShare runs the Section 4.7 legacy router through the
// facade: a TCP class beside the admission-controlled one.
func TestPublicTCPShare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m, err := eac.Run(eac.Config{
		Classes:      []eac.ClassSpec{{Preset: eac.EXP1, Eps: -1}, {TCPFlows: 20}},
		AC:           eac.ACConfig{Design: eac.DropInBand, Kind: eac.Simple, Eps: 0.02},
		InterArrival: 1,
		LifetimeSec:  30,
		Duration:     120 * eac.Second,
		Warmup:       60 * eac.Second,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tcp := m.Classes[1]; tcp.DataSent == 0 || tcp.Arrived != 0 {
		t.Fatalf("TCP class: %+v", tcp)
	}
}

// TestFacadeHasCallers keeps eac.go as big as its callers: every name it
// exports is used as eac.<Name> by an example, a command or a code block
// of the README, or is named by the signature or type of an exported name
// that is. This package's own tests are not callers, and neither is a
// mention in the README's prose.
func TestFacadeHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "eac.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// named maps each exported name to the names its signature or type uses.
	named := map[string][]string{}
	idents := func(n ast.Node) (out []string) {
		if n == nil { // a var or const with no written type
			return nil
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			return true
		})
		return out
	}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				named[d.Name.Name] = idents(d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						named[s.Name.Name] = idents(s.Type)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							named[n.Name] = idents(s.Type)
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	uses := func(name string) {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "eac" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				uses(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	eacName := regexp.MustCompile(`\beac\.([A-Z]\w*)`)
	for _, block := range regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```").FindAllStringSubmatch(string(readme), -1) {
		for _, m := range eacName.FindAllStringSubmatch(block[1], -1) {
			used[m[1]] = true
		}
	}

	// A name a used name's signature or type names is used too.
	for grew := true; grew; {
		grew = false
		for name, refs := range named {
			if !used[name] {
				continue
			}
			for _, r := range refs {
				if _, exported := named[r]; exported && !used[r] {
					used[r], grew = true, true
				}
			}
		}
	}
	for name := range named {
		if !used[name] {
			t.Errorf("eac.%s has no caller: no example, command or README code block uses it, and no used name's signature names it", name)
		}
	}
}

// TestDocsReferToExistingThings keeps the four long docs and the verify
// skill from naming what the tree does not have: every `make <target>`,
// results/<file>, cmd/<dir>, internal/<path>, Benchmark<Name> and command
// flag they mention must exist in the Makefile, on disk, as a benchmark of
// this package, or as a flag the subcommand declares.
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
	// of eacsim on the same line, up to the end of the code span or a shell
	// comment. After `eacsim figure` it must be a figure flag, after
	// `eacsim` or `eacsim run` a run flag, or else one both declare. The
	// retired `experiments -…` is an error (its cmd/ path fails as a command).
	flags := subcommandFlags(t)
	invocation := regexp.MustCompile("(?:^|[\\s`(])(?:\\./)?(?:cmd/)?eacsim((?:[ \t]+[^\\s`]+)*)")
	retired := regexp.MustCompile("(?:^|[\\s`(])(?:\\./)?experiments[ \t]+-")
	flagArg := regexp.MustCompile(`^-([a-z][\w.-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", ".claude/skills/verify/SKILL.md"} {
		for i, line := range strings.Split(read(doc), "\n") {
			for _, k := range kinds {
				for _, m := range k.re.FindAllStringSubmatch(line, -1) {
					if !k.exists(m[1]) {
						t.Errorf("%s:%d: names %s %q, which does not exist", doc, i+1, k.what, m[1])
					}
				}
			}
			if m := retired.FindString(line); m != "" {
				t.Errorf("%s:%d: names the retired experiments command (%q); it is eacsim figure", doc, i+1, strings.TrimSpace(m))
			}
			for _, m := range invocation.FindAllStringSubmatch(line, -1) {
				args, sub := strings.Fields(m[1]), "run"
				if len(args) > 0 && (args[0] == "run" || args[0] == "figure") {
					args, sub = args[1:], args[0]
				}
				for _, arg := range args {
					if strings.HasPrefix(arg, "#") {
						break
					}
					f := flagArg.FindStringSubmatch(arg)
					if f == nil {
						continue
					}
					if name := strings.TrimRight(f[1], "."); !flags[sub][name] && !flags[""][name] {
						t.Errorf("%s:%d: names flag -%s of eacsim %s, which does not exist", doc, i+1, f[1], sub)
					}
				}
			}
		}
	}
}

// TestDocsWithinBudget keeps the four long docs within 80 000 bytes
// together. Each fact has one home: a mechanism a package comment argues
// is pointed to, not restated, and a test's doc comment is not copied.
func TestDocsWithinBudget(t *testing.T) {
	const budget = 80000
	total := int64(0)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"} {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > budget {
		t.Errorf("the four docs hold %d bytes, over the %d-byte budget", total, budget)
	}
}

// subcommandFlags reads the flags cmd/eacsim declares, keyed by
// subcommand: a function that makes flag.NewFlagSet("eacsim <sub>", ...)
// declares <sub>'s flags, and one that is handed a *flag.FlagSet declares
// flags common to both, filed under "".
func subcommandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/eacsim/*.go")
	if err != nil {
		t.Fatal(err)
	}
	define := regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)(Var)?$`)
	flags := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sub, found := "", false
			var names []string
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				for _, a := range call.Args {
					if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, _ := strconv.Unquote(lit.Value)
						switch {
						case sel.Sel.Name == "NewFlagSet":
							sub, found = strings.TrimPrefix(s, "eacsim "), true
						case define.MatchString(sel.Sel.Name):
							names = append(names, s)
						}
						break
					}
				}
				return true
			})
			common := false
			for _, p := range fn.Type.Params.List {
				if star, ok := p.Type.(*ast.StarExpr); ok && types.ExprString(star.X) == "flag.FlagSet" {
					common = true
				}
			}
			if !found && !common {
				continue
			}
			if flags[sub] == nil {
				flags[sub] = map[string]bool{}
			}
			for _, n := range names {
				flags[sub][n] = true
			}
		}
	}
	for _, sub := range []string{"", "run", "figure"} {
		if len(flags[sub]) == 0 {
			t.Fatalf("found no flags declared for eacsim subcommand %q", sub)
		}
	}
	return flags
}

// buildCommands builds the command into a temporary directory. It is not
// an input of this test binary, so `go test` serves a cached pass after a
// change to it: run the command tests with -count=1.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/eacsim").CombinedOutput(); err != nil {
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

// TestCommandsRejectBadSeeds: a seed count that selects no run (eacsim run
// needs >= 1; eacsim figure takes 0 as the mode default) or more than
// scenario.MaxSeeds must end the process with a message naming -seeds
// before anything runs — not scenario.DefaultSeeds' makeslice panic or
// gigabyte seed list, and not eacsim's all-zero table that reads like a
// result.
func TestCommandsRejectBadSeeds(t *testing.T) {
	bin := buildCommands(t)
	for _, args := range [][]string{
		{"eacsim", "-seeds", "0"},
		{"eacsim", "-seeds", "-1"},
		{"eacsim", "-seeds=-9223372036854775808", "-duration", "10", "-warmup", "2"},
		{"eacsim", "figure", "-run", "table3", "-seeds", "-2"},
		{"eacsim", "figure", "-run", "figure1", "-seeds", "-1"},
		{"eacsim", "figure", "-list", "-seeds=-9223372036854775808"},
		{"eacsim", "-seeds", "10001"},
		{"eacsim", "figure", "-run", "table3", "-seeds", "10001"},
	} {
		assertRejected(t, bin, args, "-seeds")
	}
}

// TestCommandsRejectBadConfig: a value the model cannot run reaches
// scenario.Config.Validate and ends the command with the field's name —
// not a panic in netsim or mbac, not a run that ignores it or prints a
// table of zeros, and not a shard request quietly run on one domain. Input
// the command cannot use — a word left after the flags, a misspelt name
// for a flag this method or topology ignores, an unknown subcommand, a
// negative worker count, any set flag the invocation does not read (an obs
// flag without -obs, a flag of the other topology, method or policy, ε or
// the design under a policy that does not probe, -tau under -load.replay,
// any other flag beside figure -list or -cache-clear) — ends it the same
// way, naming the argument.
func TestCommandsRejectBadConfig(t *testing.T) {
	bin := buildCommands(t)
	metro := []string{"eacsim", "-topology", "metro-star", "-hosts", "600", "-duration", "20", "-warmup", "5", "-shards", "2"}
	star := []string{"eacsim", "-topology", "metro-star", "-hosts", "600", "-duration", "20", "-warmup", "5"}
	short := []string{"eacsim", "-duration", "20", "-warmup", "5"}
	fig := []string{"eacsim", "figure", "-run", "table3", "-duration", "20", "-warmup", "5", "-out", ""}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := os.WriteFile(trace, []byte(`{"t":1,"ev":"arrival","flow":1,"class":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
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
		{append(metro, "-obs", dir), "Obs.Enabled"},
		{append(short, "-obs", dir, "-perfetto", "-trace-cap", "0"), "Obs.Perfetto"},
		{append(short, "-perfetto"), "-obs"},
		{append(short, "-obs", dir, "-trace-cap", "16777217"), "Obs.TraceCapacity"},
		{append(short, "-metrics-interval", "5"), "-metrics-interval needs -obs"},
		{append(short, "-trace-cap", "7"), "-trace-cap needs -obs"},
		{append(fig, "-metrics-interval", "5"), "-metrics-interval needs -obs"},
		{append(fig, "-trace-cap", "7"), "-trace-cap needs -obs"},
		{[]string{"eacsim", "figure", "-list", "-trace-cap", "7"}, "-trace-cap needs -obs"},
		{append(star, "-source", "EXP2"), "-source"},
		{append(star, "-tau", "0.001"), "-tau"},
		{append(star, "-life", "30"), "-life"},
		{append(star, "-link", "1e6"), "-link"},
		{append(star, "-prepopulate", "0.5"), "-prepopulate"},
		{append(short, "-chains", "4"), "-chains"},
		{append(short, "-hops", "2"), "-hops"},
		{append(short, "-hosts", "600"), "-hosts"},
		{append(short, "-target", "0.5"), "-target"},
		{append(short, "-method", "mbac", "-probe", "2"), "-probe"},
		{append(short, "-method", "passive", "-design", "mark-in"), "-design"},
		{append(short, "-policy.bucket-cap", "5"), "-policy.bucket-cap"},
		{append(short, "-policy", "token-bucket", "-policy.epoch", "5"), "-policy.epoch"},
		{append(short, "-method", "mbac", "-retries", "2"), "-retries"},
		{append(short, "-load.replay", trace, "-tau", "1"), "-tau"},
		{[]string{"eacsim", "figure", "-list", "-run", "figure2"}, "-run"},
		{[]string{"eacsim", "figure", "-cache-clear", "-run", "figure2"}, "-run"},
		{[]string{"eacsim", "-life", "NaN"}, "LifetimeSec"},
		{[]string{"eacsim", "-life", "Inf"}, "LifetimeSec"},
		{[]string{"eacsim", "-tau", "NaN"}, "InterArrival"},
		{[]string{"eacsim", "-eps", "NaN"}, "AC.Eps"},
		{[]string{"eacsim", "-eps", "-1"}, "AC.Eps"},
		{[]string{"eacsim", "-prepopulate", "NaN"}, "PrepopulateUtil"},
		{[]string{"eacsim", "-prepopulate", "1e9"}, "PrepopulateUtil"},
		{[]string{"eacsim", "-tau", "-1"}, "InterArrival"},
		{append(short, "-tau", "1e-12"), "InterArrival"},
		{[]string{"eacsim", "-life", "-30"}, "LifetimeSec"},
		{[]string{"eacsim", "-probe", "70000"}, "AC.ProbeDur/AC.StageDur"},
		{[]string{"eacsim", "-topology", "metro-star", "-chains", "1", "-hops", "40000"}, "Classes[0].Path"},
		{[]string{"eacsim", "-topology", "metro-star", "-chains", "-1"}, "-chains"},
		{[]string{"eacsim", "-topology", "metro-star", "-hops", "-2"}, "-hops"},
		{[]string{"eacsim", "-topology", "metro-star", "-hosts", "-5"}, "-hosts"},
		{[]string{"eacsim", "-duration", "-5"}, "Duration"},
		{[]string{"eacsim", "-warmup", "-10", "-duration", "60"}, "Warmup"},
		{[]string{"eacsim", "figure", "-out", "", "-run", "figure2", "-duration", "-5"}, "Duration"},
		{[]string{"eacsim", "figure", "-out", "", "-run", "figure2", "-warmup", "-5"}, "Warmup"},
		{[]string{"eacsim", "figure", "-out", "", "-run", "figure11", "-duration", "-5"}, "Duration"},
		{append(short, "figure", "-run", "figure2"), `"figure"`},
		{append(short, "-method", "mbac", "-policy", "bogus"), `"bogus"`},
		{append(short, "-method", "mbac", "-design", "bogus"), `"bogus"`},
		{append(short, "-method", "none"), "-policy always-admit"},
		{append(short, "-method", "passive", "-prober", "bogus"), `"bogus"`},
		{[]string{"eacsim", "-topology", "metro-star", "-hosts", "600", "-duration", "20", "-warmup", "5", "-source", "bogus"}, `"bogus"`},
		{append(short, "-workers", "-3"), "-workers"},
		{[]string{"eacsim", "figure", "-out", "", "-run", "figure1", "-workers", "-3"}, "-workers"},
		{[]string{"eacsim", "bogus"}, `"bogus"`},
	} {
		assertRejected(t, bin, tc.args, tc.want)
	}
	// A policy that decides without probing reads no ε, design, prober
	// or probe duration.
	for _, policy := range []string{"always-admit", "never-admit", "token-bucket"} {
		for _, kv := range [][2]string{{"-eps", "0.5"}, {"-design", "mark-out"}, {"-prober", "simple"}, {"-probe", "1"}} {
			assertRejected(t, bin, append(short, "-policy", policy, kv[0], kv[1]), kv[0])
		}
	}
}

// TestFigureWritesObsOnlyUnderObs: eacsim figure writes observability
// artifacts only under -obs DIR, four per design point and seed, named by
// point label; without -obs (and with -out "") it writes no file at all.
func TestFigureWritesObsOnlyUnderObs(t *testing.T) {
	bin := buildCommands(t)
	args := []string{"figure", "-run", "table3", "-duration", "20", "-warmup", "5", "-out", ""}
	files := func(extra ...string) []string {
		t.Helper()
		wd := t.TempDir()
		cmd := exec.Command(filepath.Join(bin, "eacsim"), append(args, extra...)...)
		cmd.Dir = wd
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("eacsim %v: %v\n%s", append(args, extra...), err, out)
		}
		var names []string
		err := filepath.WalkDir(wd, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(wd, path)
				names = append(names, filepath.ToSlash(rel))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	if got := files(); len(got) != 0 {
		t.Errorf("without -obs: wrote %v, want no file", got)
	}
	artifact := regexp.MustCompile(`^D/(table3-.+-s\d+)-(series\.csv|trace\.jsonl|spans\.jsonl|hist\.json)$`)
	kinds := map[string]int{}
	for _, f := range files("-obs", "D") {
		m := artifact.FindStringSubmatch(f)
		if m == nil {
			t.Errorf("with -obs D: wrote %s, want only D/table3-<point>-s<seed>-<kind>", f)
			continue
		}
		kinds[m[1]]++
	}
	if len(kinds) == 0 {
		t.Error("with -obs D: wrote no artifact")
	}
	for run, n := range kinds {
		if n != 4 {
			t.Errorf("with -obs D: %d artifacts for %s, want 4", n, run)
		}
	}
}
