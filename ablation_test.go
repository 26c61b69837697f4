// Ablation benchmarks for the design choices DESIGN.md calls out: buffer
// size, virtual-queue speed factor, probe duration, and the slow-start
// ramp. Each logs a small table of the quick-mode basic scenario under the
// swept parameter.
package eac_test

import (
	"fmt"
	"testing"

	"eac"
	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
)

// ablationBase is the quick-mode basic scenario.
func ablationBase() eac.Config {
	return eac.Config{
		Method: eac.EAC,
		AC: eac.ACConfig{
			Design: eac.DropInBand,
			Kind:   eac.SlowStart,
			Eps:    0.01,
		},
		InterArrival:    0.35,
		LifetimeSec:     30,
		Duration:        800 * sim.Second,
		Warmup:          150 * sim.Second,
		PrepopulateUtil: 0.75,
		Seed:            1,
	}
}

func logRow(b *testing.B, label string, m eac.Metrics) {
	b.Logf("%-24s util=%.3f loss=%.2e blocking=%.3f", label, m.Utilization, m.DataLossProb, m.BlockingProb)
}

// BenchmarkAblationBufferSize sweeps the shared router buffer. Larger
// buffers absorb bursts (lower loss) but hide congestion from short
// probes.
func BenchmarkAblationBufferSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, buf := range []int{50, 200, 800} {
			cfg := ablationBase()
			cfg.Links = []eac.LinkSpec{{BufferPkts: buf}}
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, fmt.Sprintf("buffer=%d pkts", buf), m)
			}
		}
	}
}

// BenchmarkAblationVQFactor sweeps the virtual queue's speed fraction for
// in-band marking. A slower shadow queue marks earlier, trading
// utilization for loss headroom.
func BenchmarkAblationVQFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, vq := range []float64{0.80, 0.90, 0.95} {
			cfg := ablationBase()
			cfg.AC.Design = eac.MarkInBand
			cfg.AC.Eps = 0.05
			cfg.VQFactor = vq
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, fmt.Sprintf("vqfactor=%.2f", vq), m)
			}
		}
	}
}

// BenchmarkAblationProbeDuration generalizes the Figure 3 axis: longer
// probes sample more accurately but consume more bandwidth and delay the
// flow.
func BenchmarkAblationProbeDuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, probe := range []float64{1, 5, 15} {
			cfg := ablationBase()
			cfg.AC.ProbeDur = sim.Seconds(probe)
			cfg.AC.StageDur = sim.Seconds(probe / 5)
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, fmt.Sprintf("probe=%.0fs", probe), m)
			}
		}
	}
}

// BenchmarkAblationProber compares the three probing algorithms at the
// basic scenario's load (the high-load comparison is Figures 4-7).
func BenchmarkAblationProber(b *testing.B) {
	kinds := []struct {
		name string
		k    eac.ACConfig
	}{
		{"simple", eac.ACConfig{Design: eac.DropInBand, Kind: eac.Simple, Eps: 0.01}},
		{"early-reject", eac.ACConfig{Design: eac.DropInBand, Kind: admission.EarlyReject, Eps: 0.01}},
		{"slow-start", eac.ACConfig{Design: eac.DropInBand, Kind: eac.SlowStart, Eps: 0.01}},
	}
	for i := 0; i < b.N; i++ {
		for _, kc := range kinds {
			cfg := ablationBase()
			cfg.AC = kc.k
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, kc.name, m)
			}
		}
	}
}

// BenchmarkAblationRED tests the paper's conjecture that drop-tail vs RED
// "did not affect the results" for admission-controlled traffic.
func BenchmarkAblationRED(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, q := range []struct {
			name string
			kind eac.Config
		}{
			{"drop-tail", func() eac.Config { c := ablationBase(); return c }()},
			{"RED", func() eac.Config { c := ablationBase(); c.Queue = scenario.QueueRED; return c }()},
		} {
			m, err := eac.Run(q.kind)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, q.name, m)
			}
		}
	}
}

// BenchmarkAblationVirtualDrop tests footnote 14's claim that out-of-band
// virtual dropping achieves "exactly the same results" as out-of-band
// marking without ECN bits.
func BenchmarkAblationVirtualDrop(b *testing.B) {
	designs := []struct {
		name string
		d    eac.Design
		eps  float64
	}{
		{"mark out-of-band", eac.MarkOutOfBand, 0.05},
		{"vdrop out-of-band", eac.VDropOutOfBand, 0.05},
		{"drop out-of-band", eac.DropOutOfBand, 0.05},
	}
	for i := 0; i < b.N; i++ {
		for _, dd := range designs {
			cfg := ablationBase()
			cfg.AC.Design = dd.d
			cfg.AC.Eps = dd.eps
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				logRow(b, dd.name, m)
			}
		}
	}
}

// BenchmarkAblationPassive compares active probing against the passive
// egress-monitor variant (no set-up delay, but stale measurements).
func BenchmarkAblationPassive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ablationBase()
		m, err := eac.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRow(b, "active slow-start", m)
		}
		cfg = ablationBase()
		cfg.Method = eac.PassiveAdmission
		cfg.AC.Eps = 0.001
		m, err = eac.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRow(b, "passive eps=0.001", m)
		}
	}
}

// BenchmarkAblationRetry quantifies footnote 10's retry policy: final
// blocking falls, at the cost of extra probe traffic.
func BenchmarkAblationRetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, retries := range []int{0, 3} {
			cfg := ablationBase()
			cfg.MaxRetries = retries
			m, err := eac.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("retries=%d              util=%.3f loss=%.2e blocking=%.3f re-probes=%d",
					retries, m.Utilization, m.DataLossProb, m.BlockingProb, m.Retries)
			}
		}
	}
}
