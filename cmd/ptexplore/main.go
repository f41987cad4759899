// Command ptexplore drives the schedule-exploration engine: it sweeps
// seeds (PCT) or systematically enumerates bounded-preemption schedules
// over a workload's switch points, shrinks the first failing schedule to
// a minimal replay token, verifies the token reproduces the
// byte-identical failing trace, and runs the happens-before + lockset
// race checker over the trace.
//
// Usage:
//
//	ptexplore -list
//	ptexplore -workload racy-counter -policy bounded -bound 1
//	ptexplore -workload philosophers-broken -policy bounded -bound 2 -lock-only
//	ptexplore -workload racy-counter -policy pct -seeds 20
//	ptexplore -workload racy-counter -replay v1:3/0 -races
//	ptexplore -workload racy-counter -check-replay
//
// -fleet names a multi-host scenario instead, and every verb above runs
// over the whole virtual datacenter: switch points are counted per
// host, a token qualifies decisions off host 0 by host ("f1:h1/2/0"),
// and the race checker draws happens-before edges across the network
// fabric.
//
//	ptexplore -fleet fleet-lost-wakeup -lock-only -races
//	ptexplore -fleet fleet-lost-wakeup-fixed -bound 2
//	ptexplore -fleet fleet-echo -check-replay
//	ptexplore -fleet fleet-lost-wakeup -replay f1:h1/2/0 -races
//
// The -expect flag makes the exit status a CI assertion: "found" fails
// the process unless a bug was found (and its minimized schedule
// replayed byte-identically); "clean" fails it unless the exploration
// came back clean. A malformed token, or one naming a host the target
// lacks, exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/explore"
	"pthreads/internal/fabric"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list built-in workloads and exit")
		workload = flag.String("workload", "racy-counter", "workload name (see -list)")
		policy   = flag.String("policy", "bounded", "exploration policy: bounded or pct")
		bound    = flag.Int("bound", 2, "preemption bound of the systematic search")
		maxRuns  = flag.Int("max-runs", 2000, "cap on runs per exploration")
		lockOnly = flag.Bool("lock-only", false, "branch only at mutex-acquisition points")
		seeds    = flag.Int("seeds", 20, "PCT: number of seeds to sweep")
		seedBase = flag.Int64("seed-base", 1, "PCT: first seed")
		depth    = flag.Int("depth", 3, "PCT: bug depth d (d-1 priority-change points)")
		horizon  = flag.Int("horizon", 1000, "PCT: switch-point horizon for change points")
		fleet    = flag.String("fleet", "", "explore a fleet scenario instead of a workload (see -list)")
		replay   = flag.String("replay", "", "replay a schedule token instead of exploring")
		check    = flag.Bool("check-replay", false, "record a run, replay it twice, verify byte-identical traces")
		races    = flag.Bool("races", false, "always run the race checker (on by default for failing runs)")
		expect   = flag.String("expect", "", "CI assertion: found or clean")
		parallel = flag.Int("parallel", 1, "worker goroutines for the sweep (0 = GOMAXPROCS); results are byte-identical for any value")
	)
	p := explore.DefaultParams()
	flag.IntVar(&p.Philosophers, "philosophers", p.Philosophers, "philosophers workloads: table size")
	flag.IntVar(&p.Meals, "meals", p.Meals, "philosophers workloads: meals per philosopher")
	flag.IntVar(&p.Threads, "threads", p.Threads, "counter workloads: worker threads")
	flag.IntVar(&p.Iters, "iters", p.Iters, "counter workloads: increments per worker")
	flag.Parse()

	if *list {
		for _, w := range explore.Workloads(p) {
			fmt.Printf("  %-22s %s\n", w.Name, w.Desc)
		}
		for _, sc := range fabric.FleetScenarios() {
			fmt.Printf("  %-22s (fleet) %s\n", sc.Name, sc.Desc)
		}
		return
	}

	t, name, desc, ok := target(*workload, *fleet, p)
	if !ok {
		fmt.Fprintf(os.Stderr, "ptexplore: unknown workload %q (try -list)\n", name)
		os.Exit(2)
	}
	nw := *parallel
	if nw == 0 {
		nw = -1 // Options.Parallel: negative = GOMAXPROCS
	}
	opts := explore.Options{
		MaxRuns: *maxRuns, Bound: *bound, LockOnly: *lockOnly,
		Seeds: *seeds, SeedBase: *seedBase, Depth: *depth, Horizon: *horizon,
		Parallel: nw,
	}

	switch {
	case *replay != "":
		doReplay(t, name, *replay, *races)
	case *check:
		doCheckReplay(t, name, *seedBase, *depth, *horizon)
	default:
		doExplore(t, name, desc, *policy, opts, *races, *expect)
	}
}

// target resolves -fleet, or else -workload through the registry sized
// by p, to what the engine runs, with its name and description; ok is
// false, with the name looked up, when no target has that name.
func target(workload, fleet string, p explore.Params) (t explore.Target, name, desc string, ok bool) {
	if fleet != "" {
		if sc := fabric.FleetScenarioByName(fleet); sc != nil {
			return *sc, sc.Name, sc.Desc, true
		}
		return nil, fleet, "", false
	}
	for _, w := range explore.Workloads(p) {
		if w.Name == workload {
			return w, w.Name, w.Desc, true
		}
	}
	return nil, workload, "", false
}

// doExplore runs the chosen policy, then shrinks, replays, and
// race-checks any finding.
func doExplore(t explore.Target, name, desc, policy string, opts explore.Options, alwaysRaces bool, expect string) {
	fmt.Printf("workload %s: %s\n", name, desc)
	var r explore.Result
	switch policy {
	case "bounded":
		points := "lock+kernel-exit"
		if opts.LockOnly {
			points = "lock-only"
		}
		fmt.Printf("policy bounded: preemption bound %d, %s points, max %d runs\n", opts.Bound, points, opts.MaxRuns)
		r = explore.ExploreBounded(t, opts)
	case "pct":
		fmt.Printf("policy pct: %d seeds from %d, depth %d, horizon %d\n", opts.Seeds, opts.SeedBase, opts.Depth, opts.Horizon)
		r = explore.ExplorePCT(t, opts)
	default:
		fmt.Fprintf(os.Stderr, "ptexplore: unknown policy %q\n", policy)
		os.Exit(2)
	}

	if !r.Found {
		fmt.Printf("clean: no failure in %d runs\n", r.Runs)
		assertExpect(expect, false, true)
		return
	}

	fmt.Printf("FAILURE after %d runs: %s\n", r.Runs, r.Failure)
	if r.Policy == "pct" {
		fmt.Printf("  found by seed %d\n", r.Seed)
	}
	fmt.Printf("  recorded schedule:  %s (%d preemptions)\n", r.Schedule.Token(), r.Schedule.Len())

	min, shrinkRuns := explore.Shrink(t, r.Schedule)
	fmt.Printf("  minimized schedule: %s (%d preemptions, %d shrink runs)\n", min.Token(), min.Len(), shrinkRuns)

	a, b := explore.Replay(t, min), explore.Replay(t, min)
	identical := a.TraceHash == b.TraceHash && a.Failure != ""
	fmt.Printf("  replay: trace %s, failure %q\n", a.TraceHash, a.Failure)
	if identical {
		fmt.Println("  replay determinism: byte-identical trace across replays — one-line repro verified")
	} else {
		fmt.Printf("  replay determinism: VIOLATED (%s vs %s, failure %q)\n", a.TraceHash, b.TraceHash, a.Failure)
	}
	printRaces(a.Hosts, alwaysRaces || hasAccess(a.Hosts))
	assertExpect(expect, identical, false)
}

// doReplay replays one token and reports the outcome.
func doReplay(t explore.Target, name, token string, alwaysRaces bool) {
	sch, err := explore.ParseToken(token, t.Hosts())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptexplore:", err)
		os.Exit(2)
	}
	out := explore.Replay(t, sch)
	fmt.Printf("workload %s, schedule %s\n", name, sch.Token())
	fmt.Printf("  trace %s, decisions taken %s\n", out.TraceHash, out.Schedule.Token())
	if out.Failure != "" {
		fmt.Printf("  FAILURE: %s\n", out.Failure)
	} else {
		fmt.Println("  clean run")
	}
	printRaces(out.Hosts, alwaysRaces || out.Failure != "")
}

// doCheckReplay is the CI determinism check: record (under PCT so the
// schedule is non-trivial), replay twice, compare hashes.
func doCheckReplay(t explore.Target, name string, seed int64, depth, horizon int) {
	rec := explore.RunPCT(t, seed, depth, horizon)
	a, b := explore.Replay(t, rec.Schedule), explore.Replay(t, rec.Schedule)
	fmt.Printf("workload %s: recorded %s (%d decisions, trace %s)\n",
		name, rec.Schedule.Token(), rec.Schedule.Len(), rec.TraceHash)
	if a.TraceHash == rec.TraceHash && b.TraceHash == rec.TraceHash {
		fmt.Println("  replay determinism: byte-identical trace across record + 2 replays")
		return
	}
	fmt.Printf("  replay determinism: VIOLATED (record %s, replays %s / %s)\n", rec.TraceHash, a.TraceHash, b.TraceHash)
	os.Exit(1)
}

// printRaces runs the happens-before + lockset checker over a run's
// traces and prints the verdict. Traces with no annotated accesses are
// skipped unless forced (there is nothing for the checker to see).
func printRaces(hosts []explore.HostTrace, run bool) {
	if !run {
		return
	}
	races := explore.CheckRaces(hosts...)
	if len(races) == 0 {
		fmt.Println("  race checker: no data races on annotated accesses")
		return
	}
	fmt.Printf("  race checker: %d racy access pair(s)\n", len(races))
	for _, line := range strings.Split(strings.TrimRight(explore.FormatRaces(races), "\n"), "\n") {
		fmt.Println("    " + line)
	}
}

// hasAccess reports whether the traces carry any NoteRead/NoteWrite
// annotations worth race-checking.
func hasAccess(hosts []explore.HostTrace) bool {
	for _, h := range hosts {
		for _, ev := range h.Events {
			if ev.Kind == core.EvAccess {
				return true
			}
		}
	}
	return false
}

func assertExpect(expect string, found, clean bool) {
	switch expect {
	case "":
	case "found":
		if !found {
			fmt.Println("expectation FAILED: wanted a verified finding")
			os.Exit(1)
		}
	case "clean":
		if !clean {
			fmt.Println("expectation FAILED: wanted a clean exploration")
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "ptexplore: unknown -expect %q\n", expect)
		os.Exit(2)
	}
}
