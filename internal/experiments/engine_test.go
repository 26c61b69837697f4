package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// TestRunOrderedStreamsInOrder checks the engine's core contract: done
// fires for every index, in index order, regardless of completion order.
func TestRunOrderedStreamsInOrder(t *testing.T) {
	const n = 50
	var ran atomic.Int64
	var got []int
	err := runOrdered(8, n,
		func(_, i int) (int, error) {
			// Reverse the natural completion order a little.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			ran.Add(1)
			return i * i, nil
		},
		func(i, v int) error {
			if v != i*i {
				t.Errorf("done(%d) got %d", i, v)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	for i, v := range got {
		if i != v {
			t.Fatalf("done order %v", got)
		}
	}
}

// TestRunOrderedError checks that a failing run surfaces its own error
// (not the skip sentinel) and stops the sweep without running every
// remaining task.
func TestRunOrderedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var doneCount int
		err := runOrdered(workers, 100,
			func(_, i int) (int, error) {
				if i == 3 {
					return 0, boom
				}
				return i, nil
			},
			func(i, v int) error {
				if i >= 3 {
					t.Fatalf("done(%d) called past the failure", i)
				}
				doneCount++
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if doneCount > 3 {
			t.Fatalf("workers=%d: %d done calls", workers, doneCount)
		}
	}
}

// TestRunOrderedDoneError checks that an error from done stops the sweep.
func TestRunOrderedDoneError(t *testing.T) {
	halt := errors.New("halt")
	err := runOrdered(4, 20,
		func(_, i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 2 {
				return halt
			}
			return nil
		})
	if !errors.Is(err, halt) {
		t.Fatalf("err = %v, want halt", err)
	}
}

// TestWorkersResolution checks the Options.Workers plumbing.
func TestWorkersResolution(t *testing.T) {
	var o Options
	if o.workers() < 1 {
		t.Fatalf("default workers = %d", o.workers())
	}
	o.Workers = 3
	if o.workers() != 3 {
		t.Fatal("explicit workers ignored")
	}
}

// tinyOpts returns quick-mode options scaled down to seconds of CPU, for
// end-to-end engine tests that run real simulations.
func tinyOpts() Options {
	o := Quick()
	o.Duration = 80 * sim.Second
	o.Warmup = 20 * sim.Second
	return o
}

// TestParallelDeterminism is the tentpole's acceptance test: one
// representative figure point run with 1 and 4 workers yields
// bitwise-identical Metrics, and a whole experiment yields identical
// Table rows and identical progress lines.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	o := tinyOpts()

	// One representative Figure 2 point, 3 seeds: aggregate metrics must
	// be bitwise equal (reflect.DeepEqual compares float bits via ==;
	// identical bits is what full determinism produces).
	base := o.base(3.5)
	base.Classes = classes1(trafgen.EXP1)
	cfg := eacCfg(base, admission.DropInBand, admission.SlowStart, 0.01)
	seeds := scenario.DefaultSeeds(3)
	seq, err := scenario.RunSeedsParallel(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunSeedsParallel(cfg, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("figure2 point diverged across worker counts:\nseq %+v\npar %+v", seq.Mean, par.Mean)
	}

	// Whole experiment: identical Table (rows, notes, everything) and
	// byte-identical progress lines for Workers=1 vs Workers=4.
	run := func(workers int) (Table, []string) {
		o := tinyOpts()
		o.Workers = workers
		var lines []string
		o.Progress = func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
		tbl, err := Table3(o)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, lines
	}
	tbl1, log1 := run(1)
	tbl4, log4 := run(4)
	if !reflect.DeepEqual(tbl1, tbl4) {
		t.Fatalf("table3 diverged across worker counts:\n%s\n%s", tbl1, tbl4)
	}
	if !reflect.DeepEqual(log1, log4) {
		t.Fatalf("progress logs diverged:\n%q\n%q", log1, log4)
	}
}

// TestShardsOption pins the engine's -shards behaviour: on a grid whose
// points cannot shard (single-link figure 2 scenarios), Options.Shards
// is clamped away and output is byte-identical to the serial engine; on
// a shardable multi-hop point the engine actually runs the sharded
// executor and produces the same metrics as a direct sharded run.
func TestShardsOption(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	run := func(shards int) Table {
		o := tinyOpts()
		o.Shards = shards
		tbl, err := Table3(o)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	if serial, sharded := run(0), run(4); !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("unshardable grid diverged under Options.Shards:\n%s\n%s", serial, sharded)
	}

	// Shardable point: the multi-hop base. The engine must hand the
	// executor the clamped shard count, reproducing a direct sharded run.
	o := tinyOpts()
	o.Shards = 2
	cfg := eacCfg(o.multiHopBase(), admission.DropInBand, admission.SlowStart, 0.01)
	var got scenario.MultiMetrics
	err := o.runJobs([]Job{{Label: "shard point", Cfg: cfg,
		Done: func(mm scenario.MultiMetrics) error { got = mm; return nil }}})
	if err != nil {
		t.Fatal(err)
	}
	direct := cfg
	direct.Shards = scenario.ShardableK(cfg, 2)
	if direct.Shards != 2 {
		t.Fatalf("multi-hop base should shard 2 ways, ShardableK gave %d", direct.Shards)
	}
	seeds, err := o.seeds()
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunSeeds(direct, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mean, want.Mean) {
		t.Fatalf("engine sharded point != direct sharded run:\n%+v\n%+v", got.Mean, want.Mean)
	}
}
