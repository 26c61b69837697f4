// Workload-engine macro-benchmark: the same basic EAC scenario run with a
// stationary arrival process, the on/off square wave, a spike schedule,
// and a replayed trace. Each iteration is ONE complete single-seed run,
// so ns/op is the single-run wall clock per temporal source — the
// stationary row doubles as the regression gate for the workload engine
// itself (the thinning hook on the arrival path must stay in the noise
// when no modulation is active).
//
// Run via `make bench-workload`, which rewrites results/BENCH_workload.json
// and appends headline records to results/BENCH_index.json:
//
//	go test -run '^$' -bench BenchmarkWorkload -benchtime 3x -timeout 30m .
//
// In -short mode the simulated duration shrinks so CI can smoke every
// temporal source's wiring without paying full runs (no JSON is written).
package eac_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"eac"
	"eac/internal/benchindex"
)

// workloadBenchConfig reuses the policy benchmark's basic scenario — same
// bottleneck, same sources — so the stationary rows of the two files are
// directly comparable across benchmark runs.
func workloadBenchConfig(short bool) eac.Config {
	return policyBenchConfig(short)
}

// BenchmarkWorkload runs the scenario once per iteration under each
// temporal source and, at full scale, rewrites results/BENCH_workload.json.
func BenchmarkWorkload(b *testing.B) {
	cfg := workloadBenchConfig(testing.Short())

	// The replay row re-drives a deterministic Poisson-like arrival train
	// at the stationary mean rate: same arrival count and admission work,
	// so its delta against the stationary row is the cost of the replay
	// path itself (binary search-free cursor, no RNG draws for arrivals).
	var arrivals []eac.ReplayArrival
	step := eac.Seconds(cfg.InterArrival)
	for at := step; at < cfg.Duration; at += step {
		arrivals = append(arrivals, eac.ReplayArrival{At: at, Class: 0})
	}
	trace, err := eac.NewReplayTrace(arrivals, "bench-synthetic")
	if err != nil {
		b.Fatal(err)
	}

	spike, err := eac.ParseSchedule(fmt.Sprintf(
		"const:%g:1,spike:%g:3,const:%g:1,hold",
		0.4*cfg.Duration.Sec(), 0.2*cfg.Duration.Sec(), 0.4*cfg.Duration.Sec()))
	if err != nil {
		b.Fatal(err)
	}

	onoff, err := eac.ParseSchedule("const:30:2,const:30:0.5")
	if err != nil {
		b.Fatal(err)
	}

	rows := []struct {
		name string
		mut  func(*eac.Config)
	}{
		{"stationary", func(c *eac.Config) {}},
		{"onoff", func(c *eac.Config) { c.Schedule = onoff }},
		{"spike", func(c *eac.Config) { c.Schedule = spike }},
		{"replay", func(c *eac.Config) { c.Replay = trace }},
	}
	wall := map[string]int64{}
	for _, row := range rows {
		row := row
		b.Run("source="+row.name, func(b *testing.B) {
			c := cfg
			row.mut(&c)
			ws := eac.NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Run(c); err != nil {
					b.Fatal(err)
				}
			}
			wall[row.name] = b.Elapsed().Nanoseconds() / int64(b.N)
		})
	}
	if len(wall) < len(rows) || testing.Short() {
		return // filtered sub-benchmark or shrunk workload: nothing comparable
	}
	baseline := wall["stationary"]
	rec := map[string]any{
		"benchmark": "BenchmarkWorkload (go test -run '^$' -bench BenchmarkWorkload -benchtime 3x)",
		"date":      time.Now().UTC().Format(time.RFC3339),
		"machine": map[string]any{
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
		"workload": fmt.Sprintf(
			"basic single-bottleneck scenario (EXP1), EAC slow-start in-band drop, %.0f s simulated, seed 1",
			cfg.Duration.Sec()),
		"wall_ns_per_run": wall,
		"note": "source=stationary is the regression gate for the workload engine: with no " +
			"temporal source active the arrival path must not pay for the thinning hook, so " +
			"its ns/op must track the policy benchmark's static row. The onoff and spike rows " +
			"simulate more flows during their high phases (real extra work, not overhead); " +
			"replay drives the same mean arrival count as stationary through the replay cursor.",
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_workload.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	date := rec["date"].(string)
	var idx []benchindex.Record
	for _, row := range rows {
		idx = append(idx, benchindex.Record{
			Name: "BenchmarkWorkload/source=" + row.name, Date: date, Metric: "ns_per_run",
			Value: float64(wall[row.name]), Unit: "ns", Baseline: float64(baseline),
		})
	}
	if err := benchindex.Append("results/BENCH_index.json", idx...); err != nil {
		b.Fatal(err)
	}
}
