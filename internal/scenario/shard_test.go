package scenario

import (
	"reflect"
	"strings"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// shardChainConfig builds a small multihop chain: one long class over all
// links plus a per-link cross class — the smallest topology with genuine
// cross-shard traffic under a contiguous link partition.
func shardChainConfig(links int) Config {
	cfg := Config{
		Duration:        25 * sim.Second,
		Warmup:          5 * sim.Second,
		InterArrival:    0.4,
		LifetimeSec:     60,
		PrepopulateUtil: 0.5,
		Seed:            11,
	}
	cfg.Links = make([]LinkSpec, links) // paper defaults: 10 Mb/s, 20 ms, 200 pkts
	long := make([]int, links)
	for i := range long {
		long[i] = i
	}
	cfg.Classes = append(cfg.Classes, ClassSpec{Name: "long", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: long})
	for i := 0; i < links; i++ {
		cfg.Classes = append(cfg.Classes, ClassSpec{Name: "x", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{i}})
	}
	return cfg
}

// TestShardDeterministic: for a fixed shard count, repeated fresh runs are
// bitwise identical — barrier exchange and per-shard streams are fully
// deterministic.
func TestShardDeterministic(t *testing.T) {
	cfg := shardChainConfig(4)
	cfg.Shards = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestShardPlausible sanity-checks merged sharded metrics: traffic flows,
// decisions happen, utilization lands in (0,1], and the per-class counters
// add up.
func TestShardPlausible(t *testing.T) {
	cfg := shardChainConfig(4)
	cfg.Shards = 4
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided == 0 {
		t.Error("no admission decisions recorded")
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization %v out of range", m.Utilization)
	}
	var sent int64
	for _, cm := range m.Classes {
		if cm.Arrived != cm.Accepted+cm.Blocked {
			t.Errorf("class %s: arrived %d != accepted %d + blocked %d",
				cm.Name, cm.Arrived, cm.Accepted, cm.Blocked)
		}
		sent += cm.DataSent
	}
	if sent == 0 {
		t.Error("no data packets in the accounting window")
	}
	if m.MeanDelaySec <= 0 {
		t.Error("no delay samples merged")
	}
}

// TestShardWorkspaceReuse pins that kernel reuse is output-neutral at
// K > 1: a Workspace cycling through sharded configs reproduces
// fresh-kernel results exactly — including a config whose boundary link
// (link 1 at K = 2) has another delay, so the executor's window changes
// under the reused kernel.
func TestShardWorkspaceReuse(t *testing.T) {
	a := shardChainConfig(4)
	a.Shards = 2
	b := a
	b.Seed = 99
	b.Links = append([]LinkSpec(nil), a.Links...)
	b.Links[0].RateBps = 8e6 // same structure, different parameters
	c := a
	c.Links = append([]LinkSpec(nil), a.Links...)
	c.Links[1].Delay = 7 * sim.Millisecond
	ws := NewWorkspace()
	var kernel *Runner
	for i, cfg := range []Config{a, b, c, a} {
		got, err := ws.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kernel == nil {
			kernel = ws.r
		}
		if ws.r != kernel {
			t.Fatalf("run %d rebuilt the kernel instead of resetting it", i)
		}
		if w, want := ws.r.ex.Window, cfg.WithDefaults().Links[1].Delay; w != want {
			t.Fatalf("run %d: executor window %v, want the boundary delay %v", i, w, want)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused sharded executor diverged for seed %d", cfg.Seed)
		}
	}
}

// TestShardRaceSmoke exercises the cross-shard channels with maximum
// parallelism on a short run; it exists so `go test -race -short` (the
// race CI lane) covers the barrier hand-off.
func TestShardRaceSmoke(t *testing.T) {
	cfg := shardChainConfig(4)
	cfg.Duration = 12 * sim.Second
	cfg.Warmup = 3 * sim.Second
	cfg.Shards = 4
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardValidate: K is what Shards says, clamped to the link count, and
// a K the model cannot run is an error naming the field — never a quiet
// serial run.
func TestShardValidate(t *testing.T) {
	base := shardChainConfig(3)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string // "" means valid
	}{
		{"three", func(c *Config) { c.Shards = 3 }, ""},
		{"obs", func(c *Config) { c.Shards = 3; c.Obs = obs.Config{Enabled: true, MetricsInterval: sim.Second} }, ""},
		{"one-link", func(c *Config) { *c = Config{Method: MBAC, Shards: 8} }, ""},
		{"negative", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"mbac", func(c *Config) { c.Shards = 2; c.Method = MBAC }, "Shards"},
		{"passive", func(c *Config) { c.Shards = 2; c.Method = Passive }, "Shards"},
		{"hybrid", func(c *Config) { c.Shards = 2; c.Hybrid.Enabled = true }, "Shards"},
		{"negative-delay", func(c *Config) { c.Shards = 3; c.Links[1].Delay = -1 }, "Links[1].Delay"},
	} {
		c := base
		c.Links = append([]LinkSpec(nil), base.Links...)
		tc.mutate(&c)
		err := c.WithDefaults().Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%s: valid config rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestMetroStarPreset sanity-checks the large-topology preset's shape and
// that a short sharded run of it executes end to end.
func TestMetroStarPreset(t *testing.T) {
	cfg := MetroStar(MetroStarOptions{})
	if got, want := len(cfg.Links), 1+8*3; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	if got, want := len(cfg.Classes), 16; got != want {
		t.Fatalf("classes = %d, want %d", got, want)
	}
	if err := cfg.WithDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	small := MetroStar(MetroStarOptions{Chains: 3, Hops: 2, Hosts: 600})
	small.Duration = 8 * sim.Second
	small.Warmup = 2 * sim.Second
	small.Drain = sim.Second
	small.Shards = 3
	small.Seed = 5
	m, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0.2 || m.Utilization > 1 {
		t.Errorf("metro-star hub utilization %v implausible", m.Utilization)
	}
}
