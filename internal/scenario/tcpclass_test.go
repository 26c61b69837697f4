package scenario

import (
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/tcp"
	"eac/internal/trafgen"
)

// tcpShareCfg is the Section 4.7 legacy router at test scale: EXP1 flows
// that probe the simple way with in-band dropping at eps share one 10 Mb/s
// link with a class of 20 TCP Reno flows. The second half of the run is the
// accounting window.
func tcpShareCfg(eps float64) Config {
	return Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}, {TCPFlows: 20}},
		InterArrival: 1.0,
		LifetimeSec:  60,
		AC:           admission.Config{Design: admission.DropInBand, Kind: admission.Simple, Eps: eps},
		Duration:     400 * sim.Second,
		Warmup:       200 * sim.Second,
		Seed:         1,
	}
}

// linkShares returns the EXP1 and TCP classes' shares of link 0 over the
// window: the bits their window packets delivered, over the link's capacity.
func linkShares(t *testing.T, cfg Config) (ac, tcpShare float64, m Metrics) {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.WithDefaults()
	capBits := cfg.Links[0].RateBps * (cfg.Duration - cfg.Drain - cfg.Warmup).Sec()
	share := func(cm ClassMetrics, pktBytes int) float64 {
		return float64((cm.DataSent-cm.DataLost)*int64(8*pktBytes)) / capBits
	}
	return share(m.Classes[0], trafgen.EXP1.PktSize), share(m.Classes[1], tcp.Config{}.WithDefaults().SegSize), m
}

func TestTCPShareSmallEpsilonYieldsToTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	_, tcpShare, m := linkShares(t, tcpShareCfg(0))
	// Section 4.7: with a small threshold, TCP-induced loss keeps the
	// admission-controlled flows out and TCP retains the link.
	if tcpShare < 0.7 {
		t.Fatalf("TCP share = %v with eps=0; EAC should be shut out", tcpShare)
	}
	if b := m.Classes[0].BlockingProb(); b < 0.9 {
		t.Fatalf("EAC blocking = %v with eps=0, want near 1", b)
	}
}

func TestTCPShareLargeEpsilonShares(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	ac, tcpShare, _ := linkShares(t, tcpShareCfg(0.05))
	// With a permissive threshold both classes get a significant share.
	// (The paper's "never substantially above 50%" observation holds at
	// its full-scale parameters — 20 TCP flows, tau=3.5 s — and is
	// recorded with Figure 11, not checked by this scaled-down test.)
	if ac < 0.1 {
		t.Fatalf("EAC share = %v with eps=0.05, want a significant share", ac)
	}
	if tcpShare < 0.1 {
		t.Fatalf("TCP starved: %v", tcpShare)
	}
	if ac+tcpShare > 1.05 {
		t.Fatalf("shares exceed the link: EAC=%v TCP=%v", ac, tcpShare)
	}
}

// TestTCPClassAloneFillsLink: 20 TCP flows with nothing else on the link
// keep it nearly busy; no flow arrives, so nothing is decided.
func TestTCPClassAloneFillsLink(t *testing.T) {
	m, err := Run(Config{Classes: []ClassSpec{{TCPFlows: 20}}, Duration: 60 * sim.Second, Warmup: 10 * sim.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.8 {
		t.Fatalf("TCP-only utilization = %v, want >= 0.8", m.Utilization)
	}
	if m.Decided != 0 || m.Classes[0].Name != "TCP" || m.Classes[0].DataSent == 0 {
		t.Fatalf("TCP class: decided %d, class %+v", m.Decided, m.Classes[0])
	}
}
