package explore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pthreads/internal/core"
)

// Options parameterizes the exploration strategies.
type Options struct {
	// MaxRuns caps the number of runs a search may execute (default 2000).
	MaxRuns int
	// Bound is the preemption bound of the systematic search: the
	// maximum number of forced switches per schedule (default 2).
	Bound int
	// LockOnly restricts the systematic search's branch points to mutex
	// acquisitions — the synchronization points the paper's mutex-switch
	// policy targets — which shrinks the search space dramatically.
	LockOnly bool
	// Seeds is how many PCT seeds to sweep (default 20), starting at
	// SeedBase.
	Seeds    int
	SeedBase int64
	// Depth is the PCT bug depth d (default 3); Horizon the number of
	// switch points the d-1 change points are sampled over (default 1000).
	Depth   int
	Horizon int
	// Parallel is the number of worker goroutines executing runs
	// (0 or 1 = sequential; negative = GOMAXPROCS). Every run owns its
	// systems (a fleet run its own fabric), so the sweep is
	// embarrassingly parallel; results
	// are merged in enumeration order, making the aggregate output
	// byte-identical to a sequential sweep regardless of worker count.
	Parallel int
}

// workers resolves the Parallel option to an effective worker count.
func (o Options) workers() int {
	switch {
	case o.Parallel < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallel == 0:
		return 1
	}
	return o.Parallel
}

func (o Options) withDefaults() Options {
	if o.MaxRuns <= 0 {
		o.MaxRuns = 2000
	}
	if o.Bound <= 0 {
		o.Bound = 2
	}
	if o.Seeds <= 0 {
		o.Seeds = 20
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.Depth <= 0 {
		o.Depth = 3
	}
	if o.Horizon <= 0 {
		o.Horizon = 1000
	}
	return o
}

// Result summarizes an exploration.
type Result struct {
	Found    bool
	Failure  string   // the failing check's description
	Policy   string   // "pct" or "bounded"
	Seed     int64    // the finding PCT seed (pct only)
	Schedule Schedule // recorded failing schedule — a one-line repro
	Runs     int      // runs executed
}

// String renders the result in one line.
func (r Result) String() string {
	if !r.Found {
		return fmt.Sprintf("%s: clean after %d runs", r.Policy, r.Runs)
	}
	s := fmt.Sprintf("%s: FAILURE after %d runs: %s\n  schedule %s", r.Policy, r.Runs, r.Failure, r.Schedule.Token())
	if r.Policy == "pct" {
		s += fmt.Sprintf(" (seed %d)", r.Seed)
	}
	return s
}

// ExplorePCT sweeps PCT seeds until a run fails or the seed budget is
// exhausted. Seeds are executed in waves of Parallel workers; the first
// failing seed in seed order wins, and Runs counts its ordinal — so the
// result is byte-identical to a sequential sweep.
func ExplorePCT(t Target, o Options) Result {
	o = o.withDefaults()
	total := o.Seeds
	if total > o.MaxRuns {
		total = o.MaxRuns
	}
	workers := o.workers()
	wave := workers
	if wave < 1 {
		wave = 1
	}
	outs := make([]RunOutcome, 0, wave)
	for base := 0; base < total; base += wave {
		n := wave
		if n > total-base {
			n = total - base
		}
		outs = runIndexed(outs[:0], n, workers, func(j int) RunOutcome {
			return RunPCT(t, o.SeedBase+int64(base+j), o.Depth, o.Horizon)
		})
		for j, out := range outs {
			if out.Failure != "" {
				seed := o.SeedBase + int64(base+j)
				return Result{Found: true, Failure: out.Failure, Policy: "pct", Seed: seed, Schedule: out.Schedule, Runs: base + j + 1}
			}
		}
	}
	return Result{Policy: "pct", Runs: total}
}

// ExploreBounded performs the systematic bounded-preemption search: a
// stateless enumeration of schedules with at most Bound forced switches.
// Each run replays a prefix and records the switch points past it; the
// frontier is extended with every (host, point, pick) alternative after
// the prefix's last decision on that host, so each schedule of one host
// is visited exactly once (the CHESS iteration strategy; a fleet may
// visit one set of decisions on several hosts in more than one order).
// The frontier is a FIFO queue processed in chunks of Parallel workers:
// extensions always append to the back, so the enumeration order — and
// with it every reported result and run count — is the same for any
// worker count, including one. The first failure in enumeration order
// wins.
func ExploreBounded(t Target, o Options) Result {
	o = o.withDefaults()
	queue := [][]Decision{nil} // start from the unperturbed run
	head := 0
	runs := 0
	workers := o.workers()
	for head < len(queue) && runs < o.MaxRuns {
		chunk := workers
		if chunk < 1 {
			chunk = 1
		}
		if rem := o.MaxRuns - runs; chunk > rem {
			chunk = rem
		}
		if avail := len(queue) - head; chunk > avail {
			chunk = avail
		}
		batch := queue[head : head+chunk]
		outs := runIndexed(nil, chunk, workers, func(j int) RunOutcome {
			return runSchedule(t, batch[j], nil)
		})
		for j, out := range outs {
			if out.Failure != "" {
				return Result{Found: true, Failure: out.Failure, Policy: "bounded", Schedule: out.Schedule, Runs: runs + j + 1}
			}
		}
		for j, out := range outs {
			prefix := batch[j]
			if len(prefix) >= o.Bound {
				continue
			}
			for _, pt := range out.Points {
				if pt.NReady == 0 {
					continue
				}
				if o.LockOnly && pt.Kind != core.PointLock {
					continue
				}
				for pick := 0; pick < pt.NReady; pick++ {
					ext := make([]Decision, len(prefix), len(prefix)+1)
					ext = append(ext[:copy(ext, prefix)], Decision{Host: pt.Host, Index: pt.Index, Pick: pick})
					queue = append(queue, ext)
				}
			}
		}
		// Release the processed prefixes; the queue only grows forward.
		for j := range batch {
			queue[head+j] = nil
		}
		head += chunk
		runs += chunk
	}
	return Result{Policy: "bounded", Runs: runs}
}

// runIndexed executes n independent runs, each identified only by its
// index, and returns the outcomes in index order. With workers > 1 the
// runs execute concurrently — every run builds its own systems, clocks,
// and trace recorders, so nothing is shared — and the deterministic merge
// is simply the index ordering: worker scheduling cannot affect any
// observable output. dst (may be nil) is reused as the backing slice.
func runIndexed(dst []RunOutcome, n, workers int, run func(j int) RunOutcome) []RunOutcome {
	for cap(dst) < n {
		dst = append(dst[:cap(dst)], RunOutcome{})
	}
	outs := dst[:n]
	if workers <= 1 || n <= 1 {
		for j := 0; j < n; j++ {
			outs[j] = run(j)
		}
		return outs
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				outs[j] = run(j)
			}
		}()
	}
	wg.Wait()
	return outs
}

// Shrink greedily minimizes a failing schedule: it repeatedly tries to
// drop one decision and keeps any candidate that still fails, until no
// single removal preserves the failure. The result is normalized to the
// decisions the final failing run actually took.
func Shrink(t Target, sch Schedule) (Schedule, int) {
	cur := sch.Decisions
	runs := 0
	for improved := true; improved; {
		improved = false
		for i := 0; i < len(cur); i++ {
			cand := make([]Decision, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			out := runSchedule(t, cand, nil)
			runs++
			if out.Failure != "" {
				cur = out.Schedule.Decisions
				improved = true
				break
			}
		}
	}
	return Schedule{Decisions: cur}, runs
}
