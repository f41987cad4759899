// Command ptbench records the reproduction's host-machine results and
// gates them: each recording mode prints its table and merges its
// section into one JSON report (BENCH_host.json), and -diff holds the
// report to its history and to the c10k flatness bound. The paper's
// tables are ptreport's.
//
// Usage:
//
//	ptbench -host         # host-machine Go benchmarks
//	ptbench -c10k         # thread-scaling suite (-c10kmax 1000000 climbs to C1M)
//	ptbench -c1m          # resident-thread footprint (parked continuations)
//	ptbench -smp          # simulated-SMP lock contention ladder
//	ptbench -dc           # virtual-datacenter replica/loss ladder
//	ptbench -diff         # perf-regression gate: latest run vs history
//
// -out names the report (default BENCH_host.json); -out "" prints
// without writing.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	host := flag.Bool("host", false, "run host-machine Go benchmarks and record them")
	hostBench := flag.String("hostbench", defaultHostPattern, "benchmark pattern for -host")
	c10k := flag.Bool("c10k", false, "run the C10k thread-scaling suite and record it")
	c10kMax := flag.Int("c10kmax", 10000, "largest thread count for -c10k (1000000 climbs the full C1M ladder)")
	c10kReps := flag.Int("c10kreps", 3, "repetitions per -c10k point (min host cost kept)")
	c1m := flag.Bool("c1m", false, "measure the resident-thread footprint and record it")
	c1mThreads := flag.Int("c1mthreads", 1000000, "resident population for -c1m")
	smp := flag.Bool("smp", false, "run the simulated-SMP lock contention ladder and record it")
	smpVCPUs := flag.String("smpvcpus", "1,2,4,8", "comma-separated VCPU counts for -smp")
	smpIters := flag.Int("smpiters", 300, "lock/unlock cycles per thread for -smp")
	dc := flag.Bool("dc", false, "run the virtual-datacenter replica/loss ladder and record it")
	dcClients := flag.Int("dcclients", 200, "simulated users per -dc point")
	dcReplicas := flag.String("dcreplicas", "1,2,4", "comma-separated replica counts for -dc")
	dcLoss := flag.String("dcloss", "0,0.01,0.05", "comma-separated lb->replica loss rates for -dc")
	diff := flag.Bool("diff", false, "gate the report against its history and the c10k flatness bound (non-zero exit on regression)")
	out := flag.String("out", "BENCH_host.json", "report to record into and to gate with -diff (empty: print only)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ptbench: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	var err error
	switch {
	case *diff:
		err = runDiff(*out)
	case *host:
		err = runHost(*hostBench, *out)
	case *c10k:
		err = runC10K(*c10kMax, *c10kReps, *out)
	case *c1m:
		err = runC1M(*c1mThreads, *out)
	case *smp:
		err = runSMP(*smpVCPUs, *smpIters, *out)
	case *dc:
		err = runDC(*dcReplicas, *dcLoss, *dcClients, *out)
	default:
		fmt.Fprintln(os.Stderr, "ptbench: choose -host, -c10k, -c1m, -smp, -dc or -diff (the paper's tables are ptreport's)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptbench:", err)
		os.Exit(1)
	}
}
