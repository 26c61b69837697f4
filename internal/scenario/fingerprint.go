package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// ResultsVersion salts every result fingerprint. Bump it whenever a change
// anywhere in the simulator can alter the Metrics produced for an unchanged
// Config+Seed — new RNG consumption order, different event tie-breaking,
// changed estimator arithmetic, added Metrics fields, and so on. The golden
// conformance figures are the backstop that catches a forgotten bump: any
// change that moves them must come with a salt bump, or stale cache entries
// would keep serving the old numbers.
// v2: Metrics gained MeanEps (threshold-in-force accounting); cached v1
// entries would decode with MeanEps=0 and silently misreport adaptive runs.
// v3: Config.Load is gone (a square wave is a two-phase Schedule) and with
// it the load= line below, so every key changed anyway.
// v4: netsim.Link finishes transmissions lazily and resolves an arrival at
// the instant a transmission ends by a stated rule (transmission first),
// where the order of two events' seq used to decide; results move at ties.
// v5: MeanDelaySec is an integer sum of nanoseconds over a count (its last
// bits move everywhere), and a link books data at a recording sink with no
// delivery event, so its one event's seq — its order at ties — differs.
// v6: hybrid fluid flows depart on one Exp(τ/N) clock with a uniform victim,
// not on per-flow lifetimes: the same law, other sample paths.
const ResultsVersion = "eac/results/v6"

// Fingerprint returns the content address of this configuration's results:
// a hex SHA-256 over ResultsVersion plus a canonical encoding of every
// field of the fully-resolved (WithDefaults) config that the simulation
// outcome depends on, including the seed.
//
// Deliberately excluded: Name (cosmetic label, not consulted by the run),
// Obs (telemetry never feeds back into the dynamics — runs are
// byte-identical with it on or off — and cached runs are skipped while it
// is active anyway), and Cache itself. A traffic preset is identified by
// its exported parameters plus its Name; the generator behaviour behind an
// unexported build function is assumed 1:1 with the Name, so custom presets
// must use distinct names. TestFingerprintCoversConfig pins the exact field
// lists of every struct hashed here; adding a field to any of them fails
// that test until this function and the salt are revisited.
//
// The passive window, the Measured Sum estimator periods, the retry
// back-off, the adaptive policy's ε clamp and step, the token bucket's
// admission cost and the fluid share cap are constants, not Config fields,
// and are not hashed; when they stopped being fields every key changed (one
// cache miss per entry) while no Metrics moved, so ResultsVersion stayed.
func (c Config) Fingerprint() string {
	c = c.WithDefaults()
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("v=%s\n", ResultsVersion)
	w("seed=%d method=%d queue=%d\n", c.Seed, c.Method, c.Queue)
	// The effective (clamped) shard count, not the raw field: Shards=0,
	// Shards=1, and any value that clamps down to 1 are all the same K = 1
	// run and must share a cache entry.
	w("shards=%d\n", effectiveShards(c))
	w("tau=%g life=%g vq=%g prepop=%g\n",
		c.InterArrival, c.LifetimeSec, c.VQFactor, c.PrepopulateUtil)
	w("dur=%d warm=%d drain=%d\n", int64(c.Duration), int64(c.Warmup), int64(c.Drain))
	w("retries=%d\n", c.MaxRetries)
	w("ac=%d/%d/%d eps=%g probe=%d stage=%d guard=%d\n",
		c.AC.Design.Signal, c.AC.Design.Band, c.AC.Kind, c.AC.Eps,
		int64(c.AC.ProbeDur), int64(c.AC.StageDur), int64(c.AC.Guard))
	w("policy=%d bucket=%g/%g epoch=%d target=%g\n",
		c.Policy.Kind, c.Policy.BucketCap, c.Policy.BucketRate, c.Policy.Epoch, c.Policy.TargetLoss)
	// Schedule and replay lines appear only when active, so configs that use
	// neither keep the same canonical encoding as before they existed.
	if c.Schedule.Active() {
		w("sched=%d hold=%t\n", len(c.Schedule.Phases), c.Schedule.Hold)
		for _, p := range c.Schedule.Phases {
			w("phase=%d/%g/%g/%g\n", p.Kind, p.DurationSec, p.From, p.To)
		}
	}
	if c.Replay != nil {
		// The digest covers every (time, class) pair; Len is redundant but
		// keeps the encoding self-describing.
		w("replay=%s/%d\n", c.Replay.Digest(), c.Replay.Len())
	}
	// Like Schedule/Replay, the hybrid line appears only when the engine is
	// enabled, so pure-packet configs keep their pre-hybrid encoding.
	if c.Hybrid.Active() {
		w("hybrid\n")
	}
	w("ms=%g\n", c.MS.Target)
	w("classes=%d\n", len(c.Classes))
	for _, cl := range c.Classes {
		w("class=%q preset=%q/%g/%d/%d/%g w=%g eps=%g path=%v\n",
			cl.Name, cl.Preset.Name, cl.Preset.TokenRate, cl.Preset.BucketBytes,
			cl.Preset.PktSize, cl.Preset.AvgRate, cl.Weight, cl.Eps, cl.Path)
	}
	w("links=%d\n", len(c.Links))
	for _, ls := range c.Links {
		w("link=%g/%d/%d\n", ls.RateBps, int64(ls.Delay), ls.BufferPkts)
	}
	return hex.EncodeToString(h.Sum(nil))
}
