// Command bench is the repository's one benchmark: seven workloads, each a
// complete simulator run in a process of its own, five end-to-end metrics
// in host time, and per-layer numbers from a traced pass and layer probes.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh                         # full suite
//	bash bench/run.sh -sets 2 -agree          # two sets must agree within bounds
//	bash bench/run.sh --workload bottleneck --seed 3 --seconds 12 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		child    = flag.Bool("child", false, "internal: execute the run configuration on standard input and print its record")
		name     = flag.String("workload", "", "driver mode: measure this one workload and end with one JSON line")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 12, "driver mode: how long to measure")
		trace    = flag.Int("trace", 0, "driver mode: 1 runs the traced pass and reports the per-layer metrics")
		list     = flag.String("workloads", "", "suite mode: comma-separated workloads to run (default all)")
		sets     = flag.Int("sets", 1, "suite mode: how many full sets to run")
		agree    = flag.Bool("agree", false, "suite mode with -sets 2: fail unless the two sets agree within the bounds")
		scaleArg = flag.Float64("scale", 1, "multiplies every workload's simulated duration")
	)
	flag.Parse()

	if *child {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *scaleArg <= 0 || *sets < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -scale, -sets and -seconds must be positive")
		os.Exit(2)
	}
	h, err := newHarness(*scaleArg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Exit(h.driver(w, *seed, *seconds, *trace != 0))
	}
	ws := workloads
	if *list != "" {
		ws = nil
		for _, n := range strings.Split(*list, ",") {
			w, err := lookupWorkload(strings.TrimSpace(n))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			ws = append(ws, w)
		}
	}
	os.Exit(h.suite(ws, *seed, *sets, *agree))
}
