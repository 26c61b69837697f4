package trafgen

import (
	"math"
	"testing"
	"testing/quick"

	"eac/internal/sim"
	"eac/internal/stats"
)

// collect runs a source for dur and returns emission times and total bytes.
func collect(t *testing.T, build func(s *sim.Sim, emit EmitFunc) Source, dur sim.Time) (times []sim.Time, bytes int64) {
	t.Helper()
	s := sim.New()
	src := build(s, func(now sim.Time, size int) {
		times = append(times, now)
		bytes += int64(size)
	})
	src.Start(0)
	s.Run(dur)
	src.Stop()
	return times, bytes
}

func TestCBRSpacingAndRate(t *testing.T) {
	times, bytes := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
		return NewCBR(s, 100e3, 125, emit) // 100 pps
	}, 10*sim.Second)
	// First packet at t=0, then every 10 ms: 1001 packets in [0,10s].
	if len(times) != 1001 {
		t.Fatalf("emitted %d packets, want 1001", len(times))
	}
	if times[0] != 0 {
		t.Fatalf("first packet at %v", times[0])
	}
	gap := times[1] - times[0]
	if gap != 10*sim.Millisecond {
		t.Fatalf("gap = %v, want 10ms", gap)
	}
	if bytes != 1001*125 {
		t.Fatalf("bytes = %d", bytes)
	}
}

func TestCBRStopHalts(t *testing.T) {
	s := sim.New()
	n := 0
	c := NewCBR(s, 100e3, 125, func(sim.Time, int) { n++ })
	c.Start(0)
	s.Run(sim.Second)
	c.Stop()
	mid := n
	s.Run(2 * sim.Second)
	if n != mid {
		t.Fatalf("CBR kept emitting after Stop: %d -> %d", mid, n)
	}
	// Restart works.
	c.Start(s.Now())
	s.Run(3 * sim.Second)
	if n <= mid {
		t.Fatal("CBR did not resume after restart")
	}
}

func TestCBRSetRate(t *testing.T) {
	s := sim.New()
	var times []sim.Time
	c := NewCBR(s, 100e3, 125, func(now sim.Time, _ int) { times = append(times, now) })
	c.Start(0)
	s.Run(100 * sim.Millisecond)
	c.SetRate(200e3) // 200 pps -> 5 ms gaps
	s.Run(200 * sim.Millisecond)
	last := times[len(times)-1]
	prev := times[len(times)-2]
	if last-prev != 5*sim.Millisecond {
		t.Fatalf("gap after SetRate = %v, want 5ms", last-prev)
	}
}

func TestExpOnOffLongRunRate(t *testing.T) {
	// EXP1 parameters: 256 kb/s burst, 0.5/0.5 on/off -> 128 kb/s average.
	rng := stats.NewStream(1, "onoff")
	_, bytes := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
		return EXP1.New(s, rng, emit)
	}, 2000*sim.Second)
	rate := float64(bytes) * 8 / 2000
	if math.Abs(rate-128e3)/128e3 > 0.05 {
		t.Fatalf("long-run rate = %.0f bits/s, want ~128k", rate)
	}
}

func TestExpOnOffBurstSpacing(t *testing.T) {
	rng := stats.NewStream(2, "onoff")
	times, _ := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
		return EXP1.New(s, rng, emit)
	}, 100*sim.Second)
	if len(times) < 100 {
		t.Fatalf("too few packets: %d", len(times))
	}
	// Within a burst, spacing is exactly size*8/burst = 3.90625 ms. An
	// exponential off period can be arbitrarily short, so occasional
	// smaller gaps across an off/on boundary are legitimate; the bulk of
	// gaps must sit exactly at the burst spacing.
	want := sim.Time(float64(sim.Second) * 125 * 8 / 256e3)
	inBurst := 0
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] == want {
			inBurst++
		}
	}
	if inBurst < len(times)*3/4 {
		t.Fatalf("only %d/%d gaps at burst spacing", inBurst, len(times))
	}
}

func TestParetoOnOffRate(t *testing.T) {
	rng := stats.NewStream(3, "pareto")
	_, bytes := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
		return POO1.New(s, rng, emit)
	}, 5000*sim.Second)
	rate := float64(bytes) * 8 / 5000
	// Pareto with alpha=1.2 converges slowly; allow a wide band.
	if rate < 64e3 || rate > 256e3 {
		t.Fatalf("long-run rate = %.0f bits/s, want roughly 128k", rate)
	}
}

func TestOnOffStopWhileOn(t *testing.T) {
	s := sim.New()
	rng := stats.NewStream(4, "onoff")
	n := 0
	o := EXP1.New(s, rng, func(sim.Time, int) { n++ })
	o.Start(0)
	s.Run(10 * sim.Second)
	o.Stop()
	mid := n
	s.Run(20 * sim.Second)
	if n != mid {
		t.Fatal("source kept emitting after Stop")
	}
	if oo := o.(*OnOff); oo.active && oo.on {
		t.Fatal("stopped source is still on")
	}
}

func TestTokenBucketConformance(t *testing.T) {
	// r = 8000 bits/s = 1000 bytes/s, b = 500 bytes.
	tb := NewTokenBucket(8000, 500)
	if !tb.Conform(0, 500) {
		t.Fatal("full bucket must pass a bucket-sized packet")
	}
	if tb.Conform(0, 1) {
		t.Fatal("empty bucket must drop")
	}
	// 100 ms refills 100 bytes.
	if !tb.Conform(100*sim.Millisecond, 100) {
		t.Fatal("refilled tokens should pass")
	}
}

// TestTokenBucketOutputConformsProperty: for arbitrary arrival patterns,
// the accepted bytes over any prefix never exceed b + r*t (the token
// bucket envelope).
func TestTokenBucketOutputConformsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const rate, depth = 8000.0, 500 // 1000 B/s, 500 B
		tb := NewTokenBucket(rate, depth)
		now := sim.Time(0)
		accepted := 0.0
		for i := 0; i < 500; i++ {
			now += sim.Seconds(rng.Exp(0.01))
			size := 50 + rng.Intn(400)
			if tb.Conform(now, size) {
				accepted += float64(size)
			}
			envelope := float64(depth) + rate/8*now.Sec() + 1e-6
			if accepted > envelope {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketShapeWrapper(t *testing.T) {
	tb := NewTokenBucket(8000, 500)
	var out int
	emit := tb.Shape(func(sim.Time, int, int) { out++ })
	emit(0, 7, 400) // passes
	emit(0, 7, 400) // dropped (only 100 tokens left)
	if out != 1 {
		t.Fatalf("out=%d, want 1", out)
	}
}

func TestVideoRateAndShape(t *testing.T) {
	rng := stats.NewStream(5, "video")
	times, bytes := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
		return NewVideo(s, rng, 200, func(now sim.Time, _, size int) { emit(now, size) }, 0)
	}, 500*sim.Second)
	rate := float64(bytes) * 8 / 500
	// Mean ~360 kb/s; scene-level lognormal modulation makes single-run
	// means noisy, so accept a broad band.
	if rate < 150e3 || rate > 800e3 {
		t.Fatalf("video rate = %.0f bits/s, want roughly 360k", rate)
	}
	if len(times) < 1000 {
		t.Fatalf("too few packets: %d", len(times))
	}
	// All packets are pktSize.
	if bytes != int64(len(times))*200 {
		t.Fatal("video emitted variable packet sizes")
	}
}

func TestVideoVariability(t *testing.T) {
	// Per-second byte counts should vary substantially (VBR, peak/mean
	// well above 1.5).
	s := sim.New()
	rng := stats.NewStream(6, "video")
	perSec := make([]float64, 300)
	v := NewVideo(s, rng, 200, func(now sim.Time, _, size int) {
		idx := int(now / sim.Second)
		if idx < len(perSec) {
			perSec[idx] += float64(size)
		}
	}, 0)
	v.Start(0)
	s.Run(300 * sim.Second)
	var mean, peak float64
	for _, b := range perSec {
		mean += b
		if b > peak {
			peak = b
		}
	}
	mean /= float64(len(perSec))
	if mean == 0 {
		t.Fatal("no video traffic")
	}
	if peak/mean < 1.5 {
		t.Fatalf("peak/mean = %.2f, want >= 1.5 (VBR)", peak/mean)
	}
}

func TestPresetsTable(t *testing.T) {
	cases := []struct {
		p    Preset
		rate float64
		avg  float64
		pkt  int
	}{
		{EXP1, 256e3, 128e3, 125},
		{EXP2, 1024e3, 128e3, 125},
		{EXP3, 512e3, 256e3, 125},
		{EXP4, 256e3, 128e3, 125},
		{POO1, 256e3, 128e3, 125},
		{StarWars, 800e3, 360e3, 200},
	}
	for _, c := range cases {
		if c.p.TokenRate != c.rate || c.p.AvgRate != c.avg || c.p.PktSize != c.pkt {
			t.Fatalf("%s: %+v", c.p.Name, c.p)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("EXP1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

// TestPresetAverageRates runs every on-off preset and checks the long-run
// rate against Table 1.
func TestPresetAverageRates(t *testing.T) {
	for _, name := range []string{"EXP1", "EXP2", "EXP3", "EXP4"} {
		name := name
		t.Run(name, func(t *testing.T) {
			pr := Presets[name]
			rng := stats.NewStream(7, name)
			_, bytes := collect(t, func(s *sim.Sim, emit EmitFunc) Source {
				return pr.New(s, rng, emit)
			}, 2000*sim.Second)
			rate := float64(bytes) * 8 / 2000
			if math.Abs(rate-pr.AvgRate)/pr.AvgRate > 0.08 {
				t.Fatalf("%s rate = %.0f, want ~%.0f", name, rate, pr.AvgRate)
			}
		})
	}
}

// TestMakerSourcesEmitAsTheirID builds sources of every kind of preset from
// one Maker — more than a slab's worth, so an on-off tick must find its source
// in the right block — and checks that a packet names the source that sent
// it: every id emits, and stopping two sources silences exactly their ids.
func TestMakerSourcesEmitAsTheirID(t *testing.T) {
	for _, pr := range []Preset{EXP1, POO1, StarWars, NewCBRPreset(64e3, 125)} {
		t.Run(pr.Name, func(t *testing.T) {
			const n = sourceSlab + 6
			stopped := map[int]bool{3: true, sourceSlab + 1: true}
			s := sim.New()
			var pkts [n]int
			mk := pr.Maker(s, stats.NewStream(12, pr.Name), func(now sim.Time, id, size int) {
				if size != pr.PktSize {
					t.Fatalf("id %d emitted %d bytes, want %d", id, size, pr.PktSize)
				}
				pkts[id]++
			})
			srcs := make([]Source, n)
			for id := range srcs {
				srcs[id] = mk(id)
				srcs[id].Start(0)
			}
			s.Run(100 * sim.Second)
			for id := range stopped {
				srcs[id].Stop()
			}
			before := pkts
			s.Run(200 * sim.Second)
			for id := range pkts {
				// A Pareto off time can outlast any run, so a live source
				// need not have emitted again — but it must have emitted.
				if before[id] == 0 || pkts[id] < before[id] || stopped[id] && pkts[id] != before[id] {
					t.Fatalf("source %d (stopped=%v) went from %d to %d packets", id, stopped[id], before[id], pkts[id])
				}
			}
			live := 0
			for id := range pkts {
				if pkts[id] > before[id] {
					live++
				}
			}
			if live < (n-len(stopped))*3/4 {
				t.Fatalf("%d of %d live sources emitted after the stops", live, n-len(stopped))
			}
		})
	}
}

// TestMakerRecyclesStoppedSources: a stopped source of a slab-built preset
// goes back to its Maker, which hands it to the next id without allocating;
// the reused source emits as its new id only, and a second Stop does not put
// it on the free list twice.
func TestMakerRecyclesStoppedSources(t *testing.T) {
	for _, pr := range []Preset{EXP1, POO1, NewCBRPreset(64e3, 125)} {
		t.Run(pr.Name, func(t *testing.T) {
			s := sim.New()
			pkts := map[int]int{}
			mk := pr.Maker(s, stats.NewStream(13, pr.Name), func(_ sim.Time, id, _ int) { pkts[id]++ })
			a := mk(1)
			a.Start(0)
			s.Run(50 * sim.Second)
			a.Stop()
			a.Stop()
			b := mk(2)
			if b != a {
				t.Fatal("the next source is not the stopped one")
			}
			if c := mk(3); c == a {
				t.Fatal("a source stopped twice was handed out twice")
			}
			before := pkts[1]
			b.Start(s.Now())
			s.Run(250 * sim.Second)
			if pkts[1] != before || pkts[2] == 0 {
				t.Fatalf("after reuse id 1 went from %d to %d packets and id 2 sent %d", before, pkts[1], pkts[2])
			}
			b.Stop()
			if n := testing.AllocsPerRun(100, func() {
				src := mk(4)
				src.Start(s.Now())
				src.Stop()
			}); n != 0 {
				t.Fatalf("a recycled source costs %.1f allocations", n)
			}
		})
	}
}

func TestConstructorPanics(t *testing.T) {
	s := sim.New()
	rng := stats.NewRNG(1)
	for _, fn := range []func(){
		func() { NewCBR(s, 0, 125, nil) },
		func() { expOnOff(256e3, 0, .5, .5)(s, rng, nil) },
		func() { paretoOnOff(0, 125, .5, .5, 1.2)(s, rng, nil) },
		func() { NewTokenBucket(0, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestVideoStopHalts(t *testing.T) {
	s := sim.New()
	rng := stats.NewStream(9, "video")
	n := 0
	v := NewVideo(s, rng, 200, func(sim.Time, int, int) { n++ }, 0)
	v.Start(0)
	s.Run(5 * sim.Second)
	v.Stop()
	mid := n
	s.Run(10 * sim.Second)
	if n != mid {
		t.Fatal("video kept emitting after Stop")
	}
	// Double Start/Stop are no-ops.
	v.Stop()
	v.Start(s.Now())
	v.Start(s.Now())
	s.Run(12 * sim.Second)
	if n <= mid {
		t.Fatal("video did not resume")
	}
}

func TestOnOffDoubleStartIsNoop(t *testing.T) {
	s := sim.New()
	rng := stats.NewStream(10, "onoff")
	n := 0
	o := EXP1.New(s, rng, func(sim.Time, int) { n++ })
	o.Start(0)
	o.Start(0) // must not double-schedule
	s.Run(2 * sim.Second)
	// At most burst rate: 256 pps * 2 s = 512 packets ceiling.
	if n > 515 {
		t.Fatalf("double start doubled the rate: %d packets in 2 s", n)
	}
}
