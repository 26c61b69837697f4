package main

import (
	"eac/internal/admission"
	"eac/internal/scenario"
)

// manifestConfig is the manifest's `config` section: what ran, read from
// the resolved scenario, not from the flag values. A knob the chosen
// topology, method or policy ignores is left out — the metro preset
// derives source, tau and link rate from its dimensions, eps/design/prober
// mean nothing to MBAC — and what the flags only imply (a policy's
// defaulted knobs) is filled in. metro is
// the metro-star preset's dimensions, nil for the basic topology, whose
// traffic preset source names.
func manifestConfig(cfg scenario.Config, source string, metro *scenario.MetroStarOptions) map[string]any {
	cfg = cfg.WithDefaults()
	c := map[string]any{
		"shards":     cfg.Shards,
		"duration_s": cfg.Duration.Sec(), "warmup_s": cfg.Warmup.Sec(),
		"red": cfg.Queue == scenario.QueueRED, "retries": cfg.MaxRetries,
		"metrics_interval_s": cfg.Obs.MetricsInterval.Sec(), "trace_cap": cfg.Obs.TraceCapacity,
	}
	if metro != nil {
		o := metro.WithDefaults()
		c["topology"], c["hosts"], c["chains"], c["hops"] = "metro-star", o.Hosts, o.Chains, o.Hops
	} else {
		c["topology"], c["source"], c["tau_s"], c["life_s"] = "basic", source, cfg.InterArrival, cfg.LifetimeSec
		c["link_bps"], c["prepopulate"] = cfg.Links[0].RateBps, cfg.PrepopulateUtil
	}
	switch cfg.Method {
	case scenario.EAC:
		c["method"] = "eac"
		c["prober"] = cfg.AC.Kind.String()
		for name, d := range designNames {
			if d == cfg.AC.Design {
				c["design"] = name
			}
		}
		c["eps"], c["probe_s"] = cfg.AC.Eps, cfg.AC.ProbeDur.Sec()
		p := cfg.Policy
		c["policy"] = p.Kind.String()
		switch p.Kind {
		case admission.PolicyTokenBucket:
			c["policy_bucket_cap"], c["policy_bucket_rate"] = p.BucketCap, p.BucketRate
		case admission.PolicyEpochAdaptive:
			c["policy_epoch"], c["policy_target_loss"] = p.Epoch, p.TargetLoss
		}
	case scenario.MBAC:
		c["method"], c["target"] = "mbac", cfg.MS.Target
	case scenario.Passive:
		c["method"], c["eps"] = "passive", cfg.AC.Eps
	default:
		c["method"] = "none"
	}
	if cfg.Hybrid.Active() {
		c["hybrid"] = true
	}
	if cfg.Schedule.Active() {
		c["load_schedule"] = cfg.Schedule.String()
	}
	if cfg.Replay != nil {
		c["replay_source"] = cfg.Replay.Source()
		c["replay_digest"] = cfg.Replay.Digest()
		c["replay_arrivals"] = cfg.Replay.Len()
	}
	return c
}
