package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"pthreads/internal/eval"
)

// Perf-regression gate: -diff compares the latest -host run in
// BENCH_host.json against every run in its history array and fails
// (non-zero exit) when a benchmark got materially worse. It also holds
// the c1m point to its budgets and history, and the c10k section to
// flatness across its rungs. The gate knows the two kinds of metric the
// suite emits:
//
//   - vus/op and allocs/op are pure functions of the simulation — the
//     virtual clock and the allocator see the same program on every
//     machine — so the latest run is held against EVERY history entry;
//     any drift past the tolerance is a real regression, not noise.
//
//   - ns/op is host time. It moves with the machine, the load, and the
//     toolchain, so it is only compared against history entries whose
//     go_version/goos/goarch AND cpu fingerprint match the latest run
//     — two containers with the same toolchain but different silicon
//     disagree by 1.5x on these microbenchmarks, which is noise, not
//     regression. The tolerance then absorbs same-machine jitter.
//
// Benchmarks present only in the latest run (newly added) or only in
// history (since removed) are skipped: the gate polices regressions,
// not coverage.

// diffTolerance is the fractional slowdown the gate forgives: a value
// is a regression when latest > baseline * (1 + tolerance).
const diffTolerance = 0.15

// strictMetrics are deterministic per-op values gated against all of
// history; hostMetrics are wall-clock values gated only against
// same-environment history.
var (
	strictMetrics = []string{"vus/op", "allocs/op"}
	hostMetrics   = []string{"ns/op"}
)

// c10kFlatTolerance bounds the c10k section's dispatch and mutex rows:
// a rung's host ns/op may exceed the scenario's fastest rung by at most
// this fraction. It is a host-noise tripwire (mutex is a ~25 ns
// measurement on a shared host), not the regression detector; the exact
// gates are eval.RunC10K's vus/op and percentile invariance and the
// per-op count tests.
const c10kFlatTolerance = 0.4

// c10kFlatScenarios are the c10k scenarios held flat.
var c10kFlatScenarios = []string{"dispatch", "mutex"}

// diffRegression is one gate violation.
type diffRegression struct {
	Bench     string  // pkg-qualified benchmark name
	Metric    string  // which metric regressed
	Latest    float64 // value in the latest run
	Baseline  float64 // best comparable history value
	Against   string  // which history run supplied the baseline
	Tolerance float64 // the fraction forgiven
}

func (r diffRegression) String() string {
	if r.Baseline == 0 {
		return fmt.Sprintf("%s %s: %g vs 0 in %s (was free, now isn't)",
			r.Bench, r.Metric, r.Latest, r.Against)
	}
	return fmt.Sprintf("%s %s: %g vs %g in %s (+%.0f%%, tolerance %.0f%%)",
		r.Bench, r.Metric, r.Latest, r.Baseline, r.Against,
		(r.Latest/r.Baseline-1)*100, r.Tolerance*100)
}

// runLabel names a history entry in gate output.
func runLabel(i int, run hostRun) string {
	if run.GeneratedAt != "" {
		return fmt.Sprintf("history[%d] (%s)", i, run.GeneratedAt)
	}
	return fmt.Sprintf("history[%d]", i)
}

// benchKey indexes a bench across runs.
func benchKey(b hostBench) string { return b.Pkg + "." + b.Name }

// sameEnv reports whether two runs' host environments are comparable
// for wall-clock metrics: same toolchain, same OS/arch, same machine.
// A run with no recorded CPU fingerprint is comparable to nothing.
func sameEnv(a, b hostRun) bool {
	return a.GoVersion == b.GoVersion && a.GOOS == b.GOOS && a.GOARCH == b.GOARCH &&
		a.CPU != "" && a.CPU == b.CPU
}

// diffRuns gates latest against one history entry and returns the
// violations found. strict selects the deterministic metric set (true)
// or the host-time set (false).
func diffRuns(latest map[string]hostBench, i int, old hostRun, metrics []string) []diffRegression {
	var regs []diffRegression
	for _, ob := range old.Benches {
		lb, ok := latest[benchKey(ob)]
		if !ok {
			continue // benchmark since removed or renamed
		}
		for _, m := range metrics {
			base, okB := ob.Metrics[m]
			cur, okL := lb.Metrics[m]
			if !okB || !okL {
				continue
			}
			if cur > base*(1+diffTolerance) {
				regs = append(regs, diffRegression{
					Bench: benchKey(ob), Metric: m,
					Latest: cur, Baseline: base, Against: runLabel(i, old),
					Tolerance: diffTolerance,
				})
			}
		}
	}
	return regs
}

// c1mBudget mirrors the runner/goroutine bound eval.RunC1M enforces at
// measurement time: a parked population must cost O(pool) goroutines,
// never O(threads). The gate re-checks the recorded document so a
// stale or hand-edited point cannot smuggle a scaling regression past
// verify.
const c1mBudget = 8

// diffC1M gates the resident-footprint section. The deterministic
// gauges (parked count, runner peak, goroutine delta) are held to the
// absolute budget and to every same-population history entry; bytes
// per resident is host heap, so it is only compared against entries
// whose Go version and CPU fingerprint match, with the usual
// tolerance.
func diffC1M(sec *c1mSection) []diffRegression {
	if sec == nil {
		return nil
	}
	var regs []diffRegression
	bench := fmt.Sprintf("c1m[%d threads]", sec.Point.Threads)
	abs := func(metric string, latest, budget float64) {
		if latest > budget {
			regs = append(regs, diffRegression{
				Bench: bench, Metric: metric,
				Latest: latest, Baseline: budget, Against: "absolute budget",
			})
		}
	}
	if sec.Point.ContParked != int64(sec.Point.Threads) {
		regs = append(regs, diffRegression{
			Bench: bench, Metric: "cont_parked",
			Latest: float64(sec.Point.ContParked), Baseline: float64(sec.Point.Threads),
			Against: "resident population (threads not parked as continuations)",
		})
	}
	abs("runner_peak", float64(sec.Point.RunnerPeak), c1mBudget)
	abs("goroutine_delta", float64(sec.Point.GoroutineDelta), c1mBudget)

	for i, old := range sec.History {
		if old.Point.Threads != sec.Point.Threads {
			continue // footprints at different populations are not comparable
		}
		against := fmt.Sprintf("c1m history[%d] (%s)", i, old.GeneratedAt)
		grow := func(metric string, latest, base float64) {
			if latest > base*(1+diffTolerance) {
				regs = append(regs, diffRegression{
					Bench: bench, Metric: metric,
					Latest: latest, Baseline: base, Against: against,
					Tolerance: diffTolerance,
				})
			}
		}
		grow("runner_peak", float64(sec.Point.RunnerPeak), float64(old.Point.RunnerPeak))
		grow("goroutine_delta", float64(sec.Point.GoroutineDelta), float64(old.Point.GoroutineDelta))
		if old.GoVersion == sec.GoVersion && old.CPU != "" && old.CPU == sec.CPU {
			grow("bytes_per_resident", sec.Point.BytesPerResident, old.Point.BytesPerResident)
		}
	}
	return regs
}

// diffC10K holds each flat scenario's rungs within c10kFlatTolerance of
// its fastest rung, and reports the slowest rung past the bound.
func diffC10K(sec *c10kSection) []diffRegression {
	if sec == nil {
		return nil
	}
	var regs []diffRegression
	for _, sc := range c10kFlatScenarios {
		var lo, hi *eval.C10KPoint
		for i := range sec.Points {
			p := &sec.Points[i]
			if p.Scenario != sc {
				continue
			}
			if lo == nil || p.HostNSOp < lo.HostNSOp {
				lo = p
			}
			if hi == nil || p.HostNSOp > hi.HostNSOp {
				hi = p
			}
		}
		if lo != nil && hi.HostNSOp > lo.HostNSOp*(1+c10kFlatTolerance) {
			regs = append(regs, diffRegression{
				Bench: fmt.Sprintf("c10k[%s %d threads]", sc, hi.Threads), Metric: "host_ns/op",
				Latest: hi.HostNSOp, Baseline: lo.HostNSOp,
				Against:   fmt.Sprintf("c10k[%s %d threads]", sc, lo.Threads),
				Tolerance: c10kFlatTolerance,
			})
		}
	}
	return regs
}

// runDiff is the -diff entry point: load the report, gate its c1m and
// c10k sections and its latest run against history, print the verdict.
// A regression is an error so the process exits non-zero — verify.sh
// builds on that.
func runDiff(path string) error {
	report, err := loadHostReport(path)
	if err != nil {
		return err
	}
	if len(report.Benches) == 0 && report.C1M == nil && report.C10K == nil {
		return fmt.Errorf("%q has no host run, c1m point or c10k section to gate", path)
	}
	// The c1m budgets and the c10k bound are absolute, so those gates
	// run even when the host benches have no history yet.
	regs := append(diffC1M(report.C1M), diffC10K(report.C10K)...)

	latest := make(map[string]hostBench, len(report.Benches))
	for _, b := range report.Benches {
		latest[benchKey(b)] = b
	}
	compared, envMatched := 0, 0
	for i, old := range report.History {
		regs = append(regs, diffRuns(latest, i, old, strictMetrics)...)
		compared++
		if sameEnv(report.hostRun, old) {
			regs = append(regs, diffRuns(latest, i, old, hostMetrics)...)
			envMatched++
		}
	}

	// Report each distinct (bench, metric) once, against its worst
	// baseline — the smallest value it regressed from.
	worst := map[string]diffRegression{}
	for _, r := range regs {
		k := r.Bench + " " + r.Metric
		if prev, ok := worst[k]; !ok || r.Baseline < prev.Baseline {
			worst[k] = r
		}
	}
	keys := make([]string, 0, len(worst))
	for k := range worst {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if len(keys) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%d perf regression(s) in %s:\n", len(keys), path)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s\n", worst[k])
		}
		return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
	}
	var ok []string
	if len(report.Benches) > 0 {
		ok = append(ok, fmt.Sprintf("latest run within %.0f%% of %d history run(s) (%d machine-matched for ns/op)",
			diffTolerance*100, compared, envMatched))
	}
	if report.C1M != nil {
		ok = append(ok, "c1m point within its budget and history")
	}
	if report.C10K != nil {
		ok = append(ok, fmt.Sprintf("c10k %s within %.1fx across rungs",
			strings.Join(c10kFlatScenarios, " and "), 1+c10kFlatTolerance))
	}
	fmt.Fprintf(os.Stderr, "ptbench: diff ok — %s\n", strings.Join(ok, "; "))
	return nil
}
