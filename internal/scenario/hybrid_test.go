package scenario

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// hybridCfg is a short congested EAC scenario with the fluid engine on:
// every class's data phase rides the fluid plane, probes stay packets.
func hybridCfg(seed uint64) Config {
	c := reuseCfg(seed)
	c.Hybrid.Enabled = true
	return c
}

// TestHybridRunSmoke checks the hybrid engine end to end on a congested
// link: admission still decides (probes are packet-level), the fluid
// plane carries data and reports nonzero load, loss, and utilization.
func TestHybridRunSmoke(t *testing.T) {
	m, err := Run(hybridCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided == 0 {
		t.Fatal("no admission decisions — probes did not run")
	}
	if m.Classes[0].DataSent == 0 {
		t.Fatal("fluid plane reported no data packets sent")
	}
	if m.Utilization <= 0 || m.Utilization > 1.01 {
		t.Fatalf("utilization %v out of range", m.Utilization)
	}
	// The scenario is heavily overloaded (the packet path blocks ~100% on
	// it). Probes must see the fluid congestion: if the fluid plane were
	// invisible to admission, blocking would collapse to ~0.
	if m.BlockingProb < 0.5 {
		t.Fatalf("blocking probability %v under heavy overload — probes are not seeing the fluid background", m.BlockingProb)
	}
}

// TestHybridWorkspaceByteIdentical extends the workspace byte-identity
// contract to hybrid runs, interleaved with pure-packet runs so the reset
// path must rebuild and tear down the fluid attachments.
func TestHybridWorkspaceByteIdentical(t *testing.T) {
	seq := []Config{hybridCfg(1), reuseCfg(2), hybridCfg(3), hybridCfg(1)}
	mark := hybridCfg(4)
	mark.AC.Design = admission.Design{Signal: admission.Mark, Band: admission.OutOfBand}
	seq = append(seq, mark)
	ws := NewWorkspace()
	for i, cfg := range seq {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: fresh: %v", i, err)
		}
		reused, err := ws.Run(cfg)
		if err != nil {
			t.Fatalf("run %d: workspace: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("run %d: workspace metrics diverge from fresh run\nfresh:  %+v\nreused: %+v",
				i, fresh, reused)
		}
	}
}

// TestHybridOffByteIdentical pins the flag's inertness: a zero Hybrid
// config must fingerprint and simulate exactly as before the engine
// existed (the golden conformance figures are the broader backstop).
func TestHybridOffByteIdentical(t *testing.T) {
	off := reuseCfg(7)
	if off.Fingerprint() != reuseCfg(7).Fingerprint() {
		t.Fatal("zero Hybrid config fingerprint is unstable")
	}
	on := hybridCfg(7)
	if on.Fingerprint() == off.Fingerprint() {
		t.Fatal("enabling the hybrid engine must change the fingerprint")
	}
	a, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(reuseCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hybrid-off runs are not reproducible")
	}
}

// TestOracleFluidPopulation holds the fluid plane's flow population to
// M/M/∞: with admission off, Poisson arrivals at rate λ and Exp(τ)
// lifetimes, n₀ flows at time zero become at t a Binomial(n₀, p) survivor
// count plus an independent Poisson(λτ(1−p)) newcomer count, p = e^{−t/τ}.
// Seed means and sample variances of N(t) must sit within four standard
// errors of the closed form.
func TestOracleFluidPopulation(t *testing.T) {
	const (
		n0, lambda, tau = 400, 20.0, 10.0
		seeds           = 400
	)
	ws := NewWorkspace()
	for _, frac := range []float64{0.25, 1, 3} {
		horizon := sim.Seconds(frac * tau)
		var sum, sumSq float64
		for _, seed := range DefaultSeeds(seeds) {
			cfg := Config{
				Classes:         []ClassSpec{{Preset: trafgen.NewCBRPreset(1e3, 125), Eps: -1}},
				Links:           []LinkSpec{{RateBps: 1e6}},
				InterArrival:    1 / lambda,
				LifetimeSec:     tau,
				Method:          None,
				Hybrid:          HybridConfig{Enabled: true},
				PrepopulateUtil: n0 * 1e3 / 1e6,
				Duration:        horizon,
				Warmup:          horizon / 4,
				Drain:           horizon / 4,
				Seed:            seed,
			}
			if _, err := ws.Run(cfg); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, c := range ws.r.doms[0].hyb.count {
				n += c
			}
			sum += float64(n)
			sumSq += float64(n) * float64(n)
		}
		p := math.Exp(-frac)
		wantMean := n0*p + lambda*tau*(1-p)
		wantVar := n0*p*(1-p) + lambda*tau*(1-p)
		mean := sum / seeds
		variance := (sumSq - seeds*mean*mean) / (seeds - 1)
		t.Logf("t = %.2gτ: mean N %.2f (M/M/∞ %.2f), variance %.1f (M/M/∞ %.1f)", frac, mean, wantMean, variance, wantVar)
		if d := math.Abs(mean - wantMean); d > 4*math.Sqrt(wantVar/seeds) {
			t.Errorf("t = %.2gτ: mean population %.2f, M/M/∞ %.2f ± %.2f", frac, mean, wantMean, 4*math.Sqrt(wantVar/seeds))
		}
		if d := math.Abs(variance - wantVar); d > 4*wantVar*math.Sqrt(2.0/(seeds-1)) {
			t.Errorf("t = %.2gτ: population variance %.1f, M/M/∞ %.1f ± %.1f", frac, variance, wantVar, 4*wantVar*math.Sqrt(2.0/(seeds-1)))
		}
	}
}

// TestHybridMemoryCeiling: a prepopulated fluid flow costs a live-list slot
// and an ID, not a flow state and a timer. Between the 10⁵- and 10⁶-host
// hybrid MetroStar presets, run to a 1 ms horizon, the heap in use may grow
// by at most 40 B per added flow.
func TestHybridMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-flow population")
	}
	inuse := func(hosts int) (heap uint64, flows int) {
		cfg := MetroStar(MetroStarOptions{Hosts: hosts})
		cfg.Hybrid.Enabled = true
		cfg.Duration, cfg.Warmup, cfg.Drain = sim.Millisecond, sim.Millisecond/4, sim.Millisecond/4
		cfg.Seed = 1
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		for _, c := range r.doms[0].hyb.count {
			flows += c
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(r)
		return ms.HeapInuse, flows
	}
	h5, n5 := inuse(100_000)
	h6, n6 := inuse(1_000_000)
	perFlow := (float64(h6) - float64(h5)) / float64(n6-n5)
	t.Logf("heap in use %.1f MB at %d flows, %.1f MB at %d: %.1f B per flow", float64(h5)/1e6, n5, float64(h6)/1e6, n6, perFlow)
	if perFlow > 40 {
		t.Errorf("heap in use grows %.1f B per prepopulated fluid flow, want <= 40", perFlow)
	}
}

// TestHybridValidate pins the config-level guard rails.
func TestHybridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"mbac", func(c *Config) { c.Method = MBAC }, "requires method"},
		{"passive", func(c *Config) { c.Method = Passive }, "requires method"},
		{"shards", func(c *Config) {
			c.Links = []LinkSpec{{}, {}}
			c.Shards = 2
		}, "Shards <= 1"},
	}
	for _, tc := range cases {
		c := hybridCfg(1)
		tc.mutate(&c)
		err := c.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := hybridCfg(1).WithDefaults().Validate(); err != nil {
		t.Errorf("valid hybrid config rejected: %v", err)
	}
}
