// Incremental deployment (Section 4.7): what happens when admission-
// controlled traffic crosses a legacy router with no DiffServ class — one
// drop-tail FIFO shared with TCP Reno? The example runs the Figure 11
// set-up at two thresholds: EXP1 flows that probe with in-band dropping,
// plus a class of 20 greedy TCP flows (ClassSpec.TCPFlows), on one 10 Mb/s
// link. In-band, every packet sits in the top band, so the priority queue
// is a plain drop-tail FIFO.
//
// With a small eps, the loss TCP itself induces keeps every probe over
// threshold and the admission-controlled traffic surrenders gracefully;
// with a larger eps, the two classes share the link.
//
//	go run ./examples/tcpshare
package main

import (
	"fmt"
	"log"

	"eac"
)

func main() {
	for _, eps := range []float64{0.01, 0.05} {
		cfg := eac.Config{
			Method: eac.EAC,
			AC:     eac.ACConfig{Design: eac.DropInBand, Kind: eac.Simple, Eps: eps},
			Classes: []eac.ClassSpec{
				{Preset: eac.EXP1, Eps: -1},
				{TCPFlows: 20},
			},
			InterArrival: 0.35,
			LifetimeSec:  30,
			Duration:     600 * eac.Second,
			Warmup:       300 * eac.Second,
			Seed:         1,
		}
		m, err := eac.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// A class's share of the link: the bits its packets delivered in the
		// accounting window (warm-up to the end, less the 2 s drain), over
		// what the 10 Mb/s link could carry in that time.
		capBits := 10e6 * (cfg.Duration - cfg.Warmup - 2*eac.Second).Sec()
		ac, tcp := m.Classes[0], m.Classes[1]
		acShare := float64((ac.DataSent-ac.DataLost)*int64(8*eac.EXP1.PktSize)) / capBits
		tcpShare := float64((tcp.DataSent-tcp.DataLost)*8*1000) / capBits // 1000-byte segments
		fmt.Printf("eps = %.2f: TCP %.1f%%, admission-controlled %.1f%%, EAC blocking %.1f%%\n",
			eps, 100*tcpShare, 100*acShare, 100*ac.BlockingProb())
	}
	fmt.Println()
	fmt.Println("At eps=0.01 TCP keeps the link (EAC is shut out by TCP-induced loss);")
	fmt.Println("at eps=0.05 the two classes settle into a rough share.")
}
