// Architecture demonstrations: the Section 2.1 arguments that constrain
// every endpoint admission control design, reproduced as two small
// packet-level experiments against the simulator's internals.
//
//  1. Stolen bandwidth (Section 2.1.1): under Fair Queueing, a large flow
//     that probed an idle link loses half its packets once enough small
//     flows arrive — each newcomer sees only its own clean fair share.
//     Under FIFO the newcomers see the aggregate congestion. Conclusion:
//     admission-controlled traffic must not be served by Fair Queueing.
//
//  2. Multiple service levels (Section 2.1.3): two data priority classes
//     can coexist only if all probes ride one (lowest) band — gold data
//     takes everything it needs, silver keeps the leftovers, probes never
//     displace either.
//
// This example deliberately reaches below the public API into the
// simulator packages, because the arguments are about router scheduling
// mechanics, not about scenarios.
//
//	go run ./examples/architecture
package main

import (
	"fmt"

	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

// cbr injects jittered constant-bit-rate traffic into a link.
func cbr(s *sim.Sim, l *netsim.Link, sink netsim.Receiver, flow int, band uint8, kind netsim.Kind, rateBps float64, start sim.Time, counted *int) {
	rng := stats.NewStream(uint64(flow), "arch-demo")
	gap := float64(sim.Second) * 125 * 8 / rateBps
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		*counted++
		netsim.Send(now, &netsim.Packet{
			FlowID: flow, Size: 125, Band: band, Kind: kind,
			Route: []netsim.Receiver{l, sink},
		})
		s.Schedule(ev, now+sim.Time(gap*rng.Uniform(0.8, 1.2)))
	})
	s.Schedule(ev, start)
}

type tally struct{ got map[int]int }

func (t tally) Receive(now sim.Time, p *netsim.Packet) { t.got[p.FlowID]++ }

func stolenBandwidth() {
	fmt.Println("1. Stolen bandwidth (Section 2.1.1)")
	fmt.Println("   One 250 kb/s flow admitted on an idle 1 Mb/s link; seven 125 kb/s")
	fmt.Println("   flows arrive afterwards (offered 112%).")
	for _, useFQ := range []bool{true, false} {
		s := sim.New()
		var q netsim.Discipline
		name := "FIFO (drop-tail)"
		if useFQ {
			q = netsim.NewFairQueue(200, 125)
			name = "Fair Queueing"
		} else {
			q = netsim.NewDropTail(200)
		}
		l := netsim.NewLink(s, "x", 1e6, sim.Millisecond, q)
		sink := tally{got: map[int]int{}}
		sent := make([]int, 8)
		cbr(s, l, sink, 0, netsim.BandData, netsim.Data, 250e3, 0, &sent[0])
		for i := 1; i <= 7; i++ {
			cbr(s, l, sink, i, netsim.BandData, netsim.Data, 125e3, sim.Time(i)*sim.Second, &sent[i])
		}
		s.Run(40 * sim.Second)
		large := 1 - float64(sink.got[0])/float64(sent[0])
		var small float64
		for i := 1; i <= 7; i++ {
			small += (1 - float64(sink.got[i])/float64(sent[i])) / 7
		}
		fmt.Printf("   %-17s large-flow loss %5.1f%%   small-flow loss %5.1f%%\n",
			name, 100*large, 100*small)
	}
	fmt.Println("   -> FQ lets latecomers steal the large flow's bandwidth although it")
	fmt.Println("      probed a clean link; FIFO spreads the overload and the probe's")
	fmt.Println("      verdict stays meaningful.")
	fmt.Println()
}

func multiLevel() {
	fmt.Println("2. Multiple levels of service (Section 2.1.3)")
	fmt.Println("   Gold data 0.9 Mb/s, silver data 0.5 Mb/s, probes 0.2 Mb/s on a")
	fmt.Println("   1 Mb/s link with strict priority gold > silver > probes.")
	s := sim.New()
	l := netsim.NewLink(s, "ml", 1e6, sim.Millisecond, netsim.NewPriorityPushout(50))
	sink := tally{got: map[int]int{}}
	sent := make([]int, 3)
	cbr(s, l, sink, 0, netsim.BandData, netsim.Data, 0.9e6, 0, &sent[0])
	cbr(s, l, sink, 1, netsim.BandDataLow, netsim.Data, 0.5e6, 0, &sent[1])
	cbr(s, l, sink, 2, netsim.BandProbe, netsim.Probe, 0.2e6, 0, &sent[2])
	s.Run(20 * sim.Second)
	for i, name := range []string{"gold data  ", "silver data", "probes     "} {
		rate := float64(sink.got[i]) * 125 * 8 / 20
		fmt.Printf("   %s offered %.0f kb/s, delivered %.0f kb/s (%.0f%%)\n",
			name, []float64{900, 500, 200}[i], rate/1e3,
			100*float64(sink.got[i])/float64(sent[i]))
	}
	fmt.Println("   -> gold is untouched; silver gets exactly the leftover capacity;")
	fmt.Println("      probes never displace data. This is why probes for ALL service")
	fmt.Println("      levels must share the lowest band: a probe admitted at silver")
	fmt.Println("      priority would later be crushed by gold admissions.")
}

func main() {
	stolenBandwidth()
	multiLevel()
}
