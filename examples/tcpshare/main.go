// Incremental deployment (Section 4.7): what happens when admission-
// controlled traffic crosses a legacy router with no DiffServ class — one
// drop-tail FIFO shared with TCP Reno? The example runs the Figure 11
// experiment at two thresholds and prints the TCP utilization time series
// plus the steady-state split.
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
		cfg := eac.TCPShareConfig{
			Eps:          eps,
			InterArrival: 0.35,
			LifetimeSec:  30,
			Duration:     600 * eac.Second,
			Seed:         1,
		}
		res, err := eac.RunTCPShare(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("eps = %.2f\n", eps)
		fmt.Printf("  steady state: TCP %.1f%%, admission-controlled %.1f%%, EAC blocking %.1f%%\n",
			100*res.MeanTCPUtil, 100*res.MeanACUtil, 100*res.ACBlocking)
		fmt.Print("  TCP share over time: ")
		// A coarse sparkline: one character per 60 s bucket.
		marks := []rune(" .:-=+*#%@")
		step := len(res.TCPUtil) / 40
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(res.TCPUtil); i += step {
			u := res.TCPUtil[i]
			idx := int(u * float64(len(marks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(marks) {
				idx = len(marks) - 1
			}
			fmt.Print(string(marks[idx]))
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("The admission-controlled flows start 50 s in. At eps=0.01 the TCP")
	fmt.Println("band stays dense (EAC is shut out by TCP-induced loss); at eps=0.05")
	fmt.Println("it thins out as the two classes settle into a rough share.")
}
