package main

import "eac/internal/scenario"

// manifestConfig is the manifest's `config` section: the resolved value of
// every flag the run reads, keyed by knob, and of no other. reads decides
// which flags those are; the value is read from the resolved scenario, not
// from the flag, so a policy's defaulted knobs and the metro preset's
// dimensions are filled in. metro is the metro-star preset's dimensions,
// nil for the basic topology, whose traffic preset source names.
func manifestConfig(cfg scenario.Config, source string, metro *scenario.MetroStarOptions, reads reader) map[string]any {
	cfg = cfg.WithDefaults()
	topology, o := "basic", scenario.MetroStarOptions{}
	if metro != nil {
		topology, o = "metro-star", metro.WithDefaults()
	}
	ac, p := cfg.AC, cfg.Policy
	c := map[string]any{}
	for _, k := range []struct {
		key, flag string
		v         any
	}{
		{"topology", "topology", topology},
		{"source", "source", source}, {"tau_s", "tau", cfg.InterArrival}, {"life_s", "life", cfg.LifetimeSec},
		{"link_bps", "link", cfg.Links[0].RateBps}, {"prepopulate", "prepopulate", cfg.PrepopulateUtil},
		{"hosts", "hosts", o.Hosts}, {"chains", "chains", o.Chains}, {"hops", "hops", o.Hops},
		{"method", "method", nameOf(methodNames, cfg.Method)}, {"target", "target", cfg.MS.Target},
		{"eps", "eps", ac.Eps}, {"design", "design", nameOf(designNames, ac.Design)},
		{"prober", "prober", ac.Kind.String()}, {"probe_s", "probe", ac.ProbeDur.Sec()},
		{"retries", "retries", cfg.MaxRetries}, {"policy", "policy", p.Kind.String()},
		{"policy_bucket_cap", "policy.bucket-cap", p.BucketCap}, {"policy_bucket_rate", "policy.bucket-rate", p.BucketRate},
		{"policy_epoch", "policy.epoch", p.Epoch}, {"policy_target_loss", "policy.target-loss", p.TargetLoss},
		{"shards", "shards", cfg.Shards}, {"hybrid", "hybrid", cfg.Hybrid.Active()},
		{"duration_s", "duration", cfg.Duration.Sec()}, {"warmup_s", "warmup", cfg.Warmup.Sec()},
		{"red", "red", cfg.Queue == scenario.QueueRED}, {"load_schedule", "load.schedule", cfg.Schedule.String()},
		{"replay_source", "load.replay", cfg.Replay.Source()}, {"replay_digest", "load.replay", cfg.Replay.Digest()},
		{"replay_arrivals", "load.replay", cfg.Replay.Len()},
		{"metrics_interval_s", "metrics-interval", cfg.Obs.MetricsInterval.Sec()}, {"trace_cap", "trace-cap", cfg.Obs.TraceCapacity},
	} {
		if reads.reads(k.flag) {
			c[k.key] = k.v
		}
	}
	return c
}
