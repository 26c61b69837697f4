package main

import (
	"testing"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// TestManifestConfigSaysWhatRan: the config section carries the resolved
// values of the knobs the run used and none of the ones it ignored.
func TestManifestConfigSaysWhatRan(t *testing.T) {
	basic := func(edit func(*scenario.Config)) scenario.Config {
		cfg := scenario.Config{
			Classes:      []scenario.ClassSpec{{Preset: trafgen.EXP1, Weight: 1, Eps: -1}},
			Links:        []scenario.LinkSpec{{RateBps: 10e6}},
			InterArrival: 3.5, LifetimeSec: 300,
			Duration: 100 * sim.Second, Warmup: 20 * sim.Second,
			Method: scenario.EAC,
			AC:     admission.Config{Design: admission.MarkOutOfBand, Kind: admission.SlowStart, Eps: 0.05, ProbeDur: 5 * sim.Second},
		}
		edit(&cfg)
		return cfg
	}
	metroOpts := scenario.MetroStarOptions{Hosts: 600}
	for _, tc := range []struct {
		name   string
		cfg    scenario.Config
		metro  *scenario.MetroStarOptions
		want   map[string]any
		absent []string
	}{
		{"basic/eac", basic(func(*scenario.Config) {}), nil,
			map[string]any{"topology": "basic", "method": "eac", "design": "mark-out", "prober": "slow-start", "eps": 0.05,
				"probe_s": 5.0, "policy": "static", "source": "EXP1", "tau_s": 3.5, "life_s": 300.0,
				"link_bps": 10e6, "duration_s": 100.0},
			[]string{"target", "hosts", "chains", "hops", "hybrid", "policy_bucket_cap", "policy_epoch"}},
		{"mbac", basic(func(c *scenario.Config) {
			c.Method, c.AC, c.MS.Target = scenario.MBAC, admission.Config{}, 0.9
		}), nil,
			map[string]any{"method": "mbac", "target": 0.9},
			[]string{"eps", "design", "prober", "probe_s", "policy"}},
		{"metro-star", func() scenario.Config {
			c := scenario.MetroStar(metroOpts)
			c.Shards = 2
			return c
		}(), &metroOpts,
			map[string]any{"topology": "metro-star", "hosts": 600, "chains": 8, "hops": 3, "shards": 2},
			[]string{"source", "tau_s", "life_s", "link_bps", "prepopulate"}},
		{"hybrid", basic(func(c *scenario.Config) { c.Hybrid.Enabled = true }), nil,
			map[string]any{"hybrid": true},
			nil},
		{"token-bucket", basic(func(c *scenario.Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyTokenBucket, BucketRate: 2}
		}), nil,
			map[string]any{"policy": "token-bucket", "policy_bucket_cap": 10.0, "policy_bucket_rate": 2.0},
			[]string{"policy_epoch", "policy_target_loss", "hybrid"}},
	} {
		got := manifestConfig(tc.cfg, "EXP1", tc.metro)
		for k, want := range tc.want {
			if got[k] != want {
				t.Errorf("%s: config[%q] = %v (%T), want %v", tc.name, k, got[k], got[k], want)
			}
		}
		for _, k := range tc.absent {
			if v, ok := got[k]; ok {
				t.Errorf("%s: config records %q = %v, which this run ignored", tc.name, k, v)
			}
		}
	}
}
