package main

import (
	"fmt"
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
	replay, err := scenario.NewReplayTrace([]scenario.ReplayArrival{{At: sim.Second}}, "rec.jsonl")
	if err != nil {
		t.Fatal(err)
	}
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
				"link_bps": 10e6, "duration_s": 100.0, "hybrid": false},
			[]string{"target", "hosts", "chains", "hops", "policy_bucket_cap", "policy_epoch"}},
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
		{"replay", basic(func(c *scenario.Config) { c.Replay = replay }), nil,
			map[string]any{"replay_source": "rec.jsonl", "replay_arrivals": 1, "source": "EXP1", "life_s": 300.0},
			[]string{"tau_s"}},
		{"hybrid", basic(func(c *scenario.Config) { c.Hybrid.Enabled = true }), nil,
			map[string]any{"hybrid": true},
			nil},
		{"token-bucket", basic(func(c *scenario.Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyTokenBucket, BucketRate: 2}
		}), nil,
			map[string]any{"policy": "token-bucket", "policy_bucket_cap": 10.0, "policy_bucket_rate": 2.0},
			[]string{"policy_epoch", "policy_target_loss", "design", "prober", "eps", "probe_s", "retries"}},
		{"always-admit", basic(func(c *scenario.Config) { c.Policy.Kind = admission.PolicyAlwaysAdmit }), nil,
			map[string]any{"policy": "always-admit"},
			[]string{"design", "prober", "eps", "probe_s", "retries", "policy_bucket_cap", "policy_epoch"}},
		{"never-admit", basic(func(c *scenario.Config) { c.Policy.Kind = admission.PolicyNeverAdmit }), nil,
			map[string]any{"policy": "never-admit"},
			[]string{"design", "prober", "eps", "probe_s", "retries", "policy_bucket_cap", "policy_epoch"}},
	} {
		got := manifestConfig(tc.cfg, "EXP1", tc.metro, runReads(tc.cfg, tc.metro == nil))
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

// TestManifestKeysAreReadFlags: under every topology, method and policy,
// with and without -obs and -load.replay, the manifest's config holds the
// key of every flag eacsim run reads and of no other, and the design,
// prober, probe duration and retries are read exactly when flows probe
// (ε also under passive).
func TestManifestKeysAreReadFlags(t *testing.T) {
	// The manifest keys of each flag that sets a knob of the run; the
	// flags missing here (-seeds, -workers, -cache, -obs, ...) are
	// recorded outside config or are not part of the run.
	keys := map[string][]string{
		"topology": {"topology"}, "source": {"source"}, "tau": {"tau_s"}, "life": {"life_s"},
		"link": {"link_bps"}, "prepopulate": {"prepopulate"}, "hosts": {"hosts"}, "chains": {"chains"}, "hops": {"hops"},
		"method": {"method"}, "target": {"target"}, "eps": {"eps"}, "design": {"design"}, "prober": {"prober"},
		"probe": {"probe_s"}, "retries": {"retries"}, "policy": {"policy"},
		"policy.bucket-cap": {"policy_bucket_cap"}, "policy.bucket-rate": {"policy_bucket_rate"},
		"policy.epoch": {"policy_epoch"}, "policy.target-loss": {"policy_target_loss"},
		"shards": {"shards"}, "hybrid": {"hybrid"}, "duration": {"duration_s"}, "warmup": {"warmup_s"},
		"red": {"red"}, "load.schedule": {"load_schedule"},
		"load.replay":      {"replay_source", "replay_digest", "replay_arrivals"},
		"metrics-interval": {"metrics_interval_s"}, "trace-cap": {"trace_cap"},
	}
	replay, err := scenario.NewReplayTrace([]scenario.ReplayArrival{{At: sim.Second}}, "rec.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	check := func(cfg scenario.Config, metro *scenario.MetroStarOptions) {
		label := fmt.Sprintf("metro=%v %v %v obs=%v replay=%v",
			metro != nil, cfg.Method, cfg.Policy.Kind, cfg.Obs.Enabled, cfg.Replay != nil)
		reads := runReads(cfg, metro == nil)
		probes := cfg.Method == scenario.EAC && cfg.Policy.Kind.Probes()
		for flag, want := range map[string]bool{"design": probes, "prober": probes, "probe": probes,
			"retries": probes, "eps": probes || cfg.Method == scenario.Passive} {
			if reads.reads(flag) != want {
				t.Errorf("%s: reads -%s = %v, want %v", label, flag, !want, want)
			}
		}
		want := map[string]bool{}
		for flag, ks := range keys {
			for _, k := range ks {
				want[k] = reads.reads(flag)
			}
		}
		for k := range manifestConfig(cfg, "EXP1", metro, reads) {
			if !want[k] {
				t.Errorf("%s: config records %q, whose flag the run does not read", label, k)
			}
			delete(want, k)
		}
		for k, read := range want {
			if read {
				t.Errorf("%s: config lacks %q, whose flag the run reads", label, k)
			}
		}
	}
	metroOpts := scenario.MetroStarOptions{Hosts: 600}
	for _, metro := range []*scenario.MetroStarOptions{nil, &metroOpts} {
		for _, method := range methodNames {
			for _, policy := range []admission.PolicyKind{admission.PolicyStatic, admission.PolicyAlwaysAdmit,
				admission.PolicyNeverAdmit, admission.PolicyTokenBucket, admission.PolicyEpochAdaptive} {
				for _, obsOn := range []bool{false, true} {
					for _, rt := range []*scenario.ReplayTrace{nil, replay} {
						cfg := scenario.Config{Classes: []scenario.ClassSpec{{Preset: trafgen.EXP1, Weight: 1, Eps: -1}}}
						if metro != nil {
							cfg = scenario.MetroStar(*metro)
						}
						cfg.Method, cfg.Policy.Kind, cfg.Obs.Enabled, cfg.Replay = method, policy, obsOn, rt
						check(cfg, metro)
					}
				}
			}
		}
	}
}
