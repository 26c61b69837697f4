package netsim

import (
	"math"
	"testing"

	"eac/internal/sim"
	"eac/internal/stats"
)

// TestOraclePriorityWaits compares the link's queueing with closed forms from
// outside the repo (ROADMAP item 1, first row): one PriorityPushout link,
// Poisson arrivals of 125-byte packets — service time S = 100 us at
// 10 Mb/s — with rho1 = 0.3 in the high band and rho2 = 0.5 in the low one,
// and a buffer that never fills. Mean waits in queue must be
//
//	all packets (M/D/1, Pollaczek–Khinchine)   rho*S / (2(1-rho))      = 200.0 us
//	high band (Cobham, non-preemptive)         W0 / (1-rho1)           = 57.14 us
//	low band                                   W0 / ((1-rho1)(1-rho))  = 285.7 us
//
// with W0 = rho*S/2 the mean residual service. The tolerance is the 95 %
// confidence interval of the mean over 8 seeds of 4·10^5 packets — nothing
// calibrated to what the simulator happens to print. Both the link and the
// two-event reference it replaced are held to it, so the oracle passes on
// either side of that change, and the link a second time with its sojourn
// times read through a Recorder: booked when the last transmission starts,
// with no delivery event. A failure is a finding, not a tolerance to widen.
func TestOraclePriorityWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle run skipped in -short mode")
	}
	const (
		seeds = 8
		pkts  = 400000
		rate  = 10e6
		size  = 125
		rho1  = 0.3
		rho2  = 0.5
		rho   = rho1 + rho2
		svc   = size * 8 / rate // seconds
		w0    = rho * svc / 2
		t975  = 2.365 // Student t, 7 degrees of freedom, two-sided 95 %
		// The propagation delay, ten service times, makes Link finish most
		// transmissions lazily — at the next arrival, or when the packet is
		// delivered — instead of on the instant.
		delay = sim.Millisecond
	)
	want := [3]float64{rho * svc / (2 * (1 - rho)), w0 / (1 - rho1), w0 / ((1 - rho1) * (1 - rho))}
	names := [3]string{"all packets (M/D/1)", "high band (Cobham)", "low band (Cobham)"}

	for _, dut := range []struct {
		name     string
		mk       linkMaker
		recorder bool
	}{{"Link", makeLink, false}, {"refLink", makeRefLink, false}, {"LinkRecorder", makeLink, true}} {
		t.Run(dut.name, func(t *testing.T) {
			var across [3]stats.Welford // of per-seed means
			for seed := uint64(1); seed <= seeds; seed++ {
				var wait [3]stats.Welford
				dropped := 0
				s := sim.New()
				l := dut.mk(s, rate, delay, NewPriorityPushout(1<<20))
				l.attach(nil, false, false, func(sim.Time, *Packet) { dropped++ })
				svcT := sim.Time(float64(size*8) * float64(sim.Second) / rate)
				sink := recvFunc(func(now sim.Time, p *Packet) {
					w := (now - p.SentAt - svcT - delay).Sec()
					wait[0].Add(w)
					wait[1+p.Band/BandProbe].Add(w)
				})
				route := []Receiver{l, sink}
				if dut.recorder {
					route[1] = recorderFunc{sink}
				}
				rng := stats.NewStream(seed, "oracle-md1")
				sent := 0
				var arrive *sim.Event
				arrive = sim.NewEvent(func(now sim.Time) {
					band := uint8(BandProbe)
					if rng.Bool(rho1 / rho) {
						band = BandData
					}
					Send(now, &Packet{Size: size, Band: band, Route: route})
					if sent++; sent < pkts {
						s.Schedule(arrive, now+sim.Seconds(rng.Exp(svc/rho)))
					}
				})
				s.Schedule(arrive, 0)
				s.RunAll()
				if dropped != 0 || wait[0].N() != pkts {
					t.Fatalf("seed %d: %d dropped, %d delivered: the buffer was to stay unfilled", seed, dropped, wait[0].N())
				}
				for i := range across {
					across[i].Add(wait[i].Mean())
				}
			}
			for i, w := range across {
				half := t975 * w.StderrMean()
				t.Logf("%-20s %7.2f +- %.2f us, closed form %.2f us", names[i], w.Mean()*1e6, half*1e6, want[i]*1e6)
				if math.Abs(w.Mean()-want[i]) > half {
					t.Errorf("%s: mean wait %.2f us is outside the 95 %% CI (+- %.2f us) of the closed form %.2f us",
						names[i], w.Mean()*1e6, half*1e6, want[i]*1e6)
				}
			}
		})
	}
}

type recvFunc func(now sim.Time, p *Packet)

func (f recvFunc) Receive(now sim.Time, p *Packet) { f(now, p) }

// recorderFunc is a recvFunc that takes every packet as a Recorder.
type recorderFunc struct{ recvFunc }

func (f recorderFunc) Record(at sim.Time, p *Packet) bool { f.recvFunc(at, p); return true }
