package scenario

import (
	"bytes"
	"math"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// FuzzSchedule feeds arbitrary specs to the schedule parser and, for every
// spec it accepts, checks the evaluation invariants the thinning loop
// relies on: the factor is finite and non-negative everywhere, never
// exceeds the declared peak (the thinning envelope), the cursor-based
// evaluation agrees with the stateless one, and the String rendering
// parses back to an equal schedule.
//
// Run with: go test ./internal/scenario -fuzz FuzzSchedule
func FuzzSchedule(f *testing.F) {
	f.Add("const:100:2")
	f.Add("ramp:60:1:3,sine:30:0.5:4,hold")
	f.Add("steps:10:1:2:3")
	f.Add("flash:50:10:1:4")
	f.Add("const:1e-3:1e6,sawtooth:0.5:0:0.1")
	f.Add("diurnal:86400:0.5:2")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed schedule fails Validate: %v", err)
		}
		peak := s.Peak()
		if !(peak > 0) || math.IsInf(peak, 0) {
			t.Fatalf("accepted schedule has unusable peak %v", peak)
		}
		total := s.TotalSec()
		var cur schedCursor
		for i := 0; i <= 64; i++ {
			// Sweep two full cycles, plus a point far past the end to hit
			// the hold/cycle branch.
			q := 2 * total * float64(i) / 64
			if i == 64 {
				q = 3*total + 1
			}
			got := s.FactorAt(q)
			if math.IsNaN(got) || got < 0 {
				t.Fatalf("FactorAt(%g) = %v", q, got)
			}
			if got > peak*(1+1e-12)+1e-9 {
				t.Fatalf("FactorAt(%g) = %g exceeds peak %g", q, got, peak)
			}
			if c := s.factorAt(q, &cur); c != got {
				t.Fatalf("cursor factorAt(%g) = %g, stateless = %g", q, c, got)
			}
		}
		// A backwards query must not confuse the cursor.
		if c, want := s.factorAt(0, &cur), s.FactorAt(0); c != want {
			t.Fatalf("cursor factorAt(0) after rewind = %g, want %g", c, want)
		}
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("String() = %q does not re-parse: %v", s.String(), err)
		}
		if back.String() != s.String() {
			t.Fatalf("String round-trip unstable: %q vs %q", s.String(), back.String())
		}
	})
}

// FuzzReplay feeds arbitrary bytes to the trace parser: it must never
// panic, and whatever it accepts must satisfy the replay contract — times
// sorted non-decreasing, no negative times or classes, and a digest that
// is a pure function of the arrival sequence.
//
// Run with: go test ./internal/scenario -fuzz FuzzReplay
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`{"t":0.5,"ev":"arrival","flow":3,"class":1}` + "\n"))
	f.Add([]byte(`{"t":1,"ev":"arrival","class":0,"shard":1}` + "\n" + `{"t":0.5,"ev":"arrival","class":2}`))
	f.Add([]byte("not json\n{\"t\":-1,\"ev\":\"arrival\",\"class\":0}\n"))
	f.Add([]byte(`{"t":1e300,"ev":"arrival","class":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseReplay(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		var prev int64 = -1
		for _, a := range tr.arrivals {
			if a.At < 0 || a.Class < 0 {
				t.Fatalf("accepted arrival with negative field: %+v", a)
			}
			if int64(a.At) < prev {
				t.Fatalf("arrivals out of order: %d after %d", a.At, prev)
			}
			prev = int64(a.At)
		}
		if tr.Len() > 0 && tr.MaxClass() < 0 {
			t.Fatalf("non-empty trace reports MaxClass %d", tr.MaxClass())
		}
		tr2, err := ParseReplay(bytes.NewReader(data), "fuzz")
		if err != nil || tr2.Digest() != tr.Digest() {
			t.Fatalf("digest not deterministic: %q vs %q (%v)", tr.Digest(), tr2.Digest(), err)
		}
	})
}

// FuzzConfig builds a config from fuzzed scalars and runs it: Validate
// either refuses it or Run returns metrics, and neither panics. An
// accepted run's headline metrics are finite and non-negative.
//
// The generator keeps one input under about a second and 100 MB: at most
// 4 links, 3 classes and K ≤ 4 shards, a run of at most 2 s, an arrival
// gap of at least 10 ms, probe stages of at least 1 ms, link delays of at
// least 1 ms, at most 10⁴ buffered packets per link and 2000 prepopulated
// flows, and probe streams of at most 10⁴ packets/s. Inputs beyond a bound
// are skipped, not clamped. The method, design, prober and policy take one
// value past their last.
//
// Run with: go test ./internal/scenario -fuzz FuzzConfig
func FuzzConfig(f *testing.F) {
	type in struct {
		links, classes                 uint8
		shards                         int8
		method, design, kind, policy   uint8
		red, hybrid                    bool
		tcp, retries                   int8
		paths, presets                 uint16
		tau, life, prepop, eps, vq     float64
		dur, warm, drain, probe, stage float64
		rate, delayMs                  float64
		buffer                         int32
		weight                         float64
		custom                         bool
		pkt                            int32
		token, avg                     float64
	}
	add := func(c in) {
		f.Add(c.links, c.classes, c.shards, c.method, c.design, c.kind, c.policy, c.red, c.hybrid,
			c.tcp, c.retries, c.paths, c.presets, c.tau, c.life, c.prepop, c.eps, c.vq,
			c.dur, c.warm, c.drain, c.probe, c.stage, c.rate, c.delayMs, c.buffer, c.weight,
			c.custom, c.pkt, c.token, c.avg)
	}
	base := in{shards: 1, kind: 2, tau: 0.05, life: 1, prepop: 0.5,
		eps: 0.01, dur: 2, warm: 0.5, drain: 0.1, probe: 0.5, stage: 0.1, rate: 10e6, delayMs: 20,
		weight: 1, pkt: 125, token: 256e3, avg: 128e3}
	add(base)
	// A zero packet size and a zero token rate used to panic in trafgen.
	zeroPkt := base
	zeroPkt.custom, zeroPkt.pkt = true, 0
	add(zeroPkt)
	zeroToken := base
	zeroToken.custom, zeroToken.token = true, 0
	add(zeroToken)
	sharded := base
	sharded.links, sharded.classes, sharded.shards, sharded.paths = 3, 2, 2, 0x204f
	add(sharded)
	hybrid := base
	hybrid.hybrid, hybrid.classes = true, 1
	add(hybrid)
	tcp := base
	tcp.classes, tcp.tcp, tcp.method, tcp.design = 1, 4, 2, 4
	add(tcp)

	// A slow-start ramp of 64 or more stages made a zero-interval probe
	// stream (a hang), and one of about 45 scheduled into the past; one of
	// 1500 starts below the smallest float.
	deep := base
	deep.probe, deep.stage = 1.5, 1e-3
	add(deep)
	// A link too slow for the clock ended a transmission before it began.
	slow := base
	slow.rate = 1e-300
	add(slow)

	names := []string{"EXP1", "EXP2", "EXP3", "EXP4", "POO1", "StarWars"}
	f.Fuzz(func(t *testing.T, links, classes uint8, shards int8, method, design, kind, policy uint8, red, hybrid bool,
		tcp, retries int8, paths, presets uint16, tau, life, prepop, eps, vq,
		dur, warm, drain, probe, stage, rate, delayMs float64, buffer int32, weight float64,
		custom bool, pkt int32, token, avg float64) {
		nl, nc := int(links%4)+1, int(classes%3)+1
		switch {
		case shards > 4, !(dur > 0 && dur <= 2), tau > 0 && tau < 0.01,
			stage > 0 && stage < 1e-3, delayMs > 0 && delayMs < 1, buffer > 1e4,
			!(rate <= 1e9), !(prepop <= 2):
			t.Skip("beyond the generator's cost bounds")
		}
		cfg := Config{
			Method: Method(method % 4),
			AC: admission.Config{
				Design:   admission.Design{Signal: admission.Signal(design % 4), Band: admission.Band(design / 4 % 3)},
				Kind:     admission.ProberKind(kind % 4),
				Eps:      eps,
				ProbeDur: sim.Seconds(probe),
				StageDur: sim.Seconds(stage),
			},
			Policy:          admission.PolicyConfig{Kind: admission.PolicyKind(policy % 6)},
			InterArrival:    tau,
			LifetimeSec:     life,
			PrepopulateUtil: prepop,
			VQFactor:        vq,
			Duration:        sim.Seconds(dur),
			Warmup:          sim.Seconds(warm),
			Drain:           sim.Seconds(drain),
			MaxRetries:      int(retries),
			Shards:          int(shards),
			Hybrid:          HybridConfig{Enabled: hybrid},
			Seed:            uint64(presets) ^ uint64(paths)<<16,
		}
		if red {
			cfg.Queue = QueueRED
		}
		for i := 0; i < nl; i++ {
			cfg.Links = append(cfg.Links, LinkSpec{RateBps: rate, Delay: sim.Seconds(delayMs / 1e3), BufferPkts: int(buffer)})
		}
		for c := 0; c < nc; c++ {
			cl := ClassSpec{Preset: trafgen.Presets[names[int(presets>>(3*c))%len(names)]], Weight: 1, Eps: -1}
			for li := 0; li < 5; li++ { // link 4 is past the last: an error
				if paths>>(5*c+li)&1 == 1 {
					cl.Path = append(cl.Path, li)
				}
			}
			cfg.Classes = append(cfg.Classes, cl)
		}
		cfg.Classes[0].Weight = weight
		if custom {
			p := &cfg.Classes[0].Preset
			p.PktSize, p.TokenRate, p.AvgRate = int(pkt), token, avg
		}
		if tcp != 0 && nc > 1 {
			cfg.Classes[nc-1].TCPFlows, cfg.Classes[nc-1].Weight = int(tcp), 0
		}
		// Probe packets a flow sends per second, at the class's token rate.
		for _, cl := range cfg.Classes {
			if cl.Preset.PktSize > 0 && cl.Preset.TokenRate/float64(8*cl.Preset.PktSize) > 1e4 {
				t.Skip("beyond the generator's cost bounds")
			}
		}
		if r := cfg.WithDefaults(); r.prepopulatedFlows() > 2000 {
			t.Skip("beyond the generator's cost bounds")
		}
		m, err := Run(cfg)
		if err != nil {
			return
		}
		for _, v := range []float64{m.Utilization, m.DataLossProb, m.BlockingProb, m.ProbeShare, m.MeanDelaySec} {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("accepted config gave metrics %+v", m)
			}
		}
	})
}
