package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pthreads/internal/eval"
)

// Recording modes: -host runs the repository's hot-path Go benchmarks
// on the host machine (real nanoseconds, not virtual time); -c10k,
// -c1m, -smp and -dc run their eval ladders. Each prints its output and
// merges its section into one JSON report. The report keeps the latest
// -host run at the top level and every previous one in a history
// array, so the checked-in BENCH_host.json carries the performance
// trajectory of the reproduction itself, alongside the virtual-time
// tables that must never move.
//
// The default pattern covers the scheduler-queue and synchronization
// fast paths plus the core composite latencies; -hostbench overrides it.
// The NetEcho / NetEchoSpans pair records the observability plane's
// cost on the hottest I/O path — and NetEcho's allocs/op staying 0 with
// spans off is a -diff-gated contract.
const defaultHostPattern = "EnqueueDequeue|PeekMaxLoaded|Remove$|MutexNoContention|" +
	"MutexProtocols|ContextSwitch$|ContextSwitchCont$|SemaphoreSync$|ThreadCreate$|NetEcho$|" +
	"NetEchoSpans$|MutexMetricsOn$|MutexMetricsOff$|DispatchMetricsOn$|DispatchMetricsOff$"

// hostBench is one parsed benchmark result line.
type hostBench struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// hostRun is one -host sweep: the environment it ran in plus its parsed
// results. The latest run is embedded at the top of the report; earlier
// runs are kept verbatim in the history array.
type hostRun struct {
	GeneratedAt string `json:"generated_at,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// CPU fingerprints the machine (model name + logical count). The
	// -diff gate only compares wall-clock metrics between runs whose
	// fingerprints match: go version and OS alone do not make two
	// machines' nanoseconds comparable. Runs recorded before the field
	// existed have none and are never wall-clock-gated.
	CPU     string      `json:"cpu,omitempty"`
	Pattern string      `json:"pattern"`
	Command string      `json:"command"`
	Benches []hostBench `json:"benches"`
}

// hostCPU builds the machine fingerprint: the CPU model from
// /proc/cpuinfo where available (the arch as a stand-in elsewhere),
// plus the logical CPU count.
func hostCPU() string {
	model := runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s x%d", model, runtime.NumCPU())
}

// c10kSection is the thread-scaling suite's slot in the report.
type c10kSection struct {
	GeneratedAt string           `json:"generated_at,omitempty"`
	Command     string           `json:"command"`
	Points      []eval.C10KPoint `json:"points"`
}

// c1mEntry is one prior -c1m measurement kept in the section's own
// history. The section carries its history inline (unlike the -host
// benches) because a footprint point is tied to the environment that
// produced it: heap bytes move with the Go version and the machine,
// while the gauges (parked count, runner peak, goroutine delta) are
// deterministic.
type c1mEntry struct {
	GeneratedAt string        `json:"generated_at,omitempty"`
	GoVersion   string        `json:"go_version,omitempty"`
	CPU         string        `json:"cpu,omitempty"`
	Point       eval.C1MPoint `json:"point"`
}

// c1mSection is the resident-footprint measurement's slot: the latest
// point plus every prior one. The -diff gate holds the latest point to
// the runner/goroutine budgets absolutely, and to its history for
// growth (bytes per resident only against matching environments).
type c1mSection struct {
	GeneratedAt string        `json:"generated_at,omitempty"`
	Command     string        `json:"command"`
	GoVersion   string        `json:"go_version,omitempty"`
	CPU         string        `json:"cpu,omitempty"`
	Point       eval.C1MPoint `json:"point"`
	History     []c1mEntry    `json:"history,omitempty"`
}

// smpSection is the simulated-SMP contention ladder's slot. Its points
// are pure virtual-time measurements, so unlike the host benches they
// are bit-identical on every machine.
type smpSection struct {
	GeneratedAt string          `json:"generated_at,omitempty"`
	Command     string          `json:"command"`
	Points      []eval.SMPPoint `json:"points"`
}

// dcSection is the virtual-datacenter replica/loss ladder's slot; like
// the SMP ladder its points are pure virtual-time measurements.
type dcSection struct {
	GeneratedAt string         `json:"generated_at,omitempty"`
	Command     string         `json:"command"`
	Points      []eval.DCPoint `json:"points"`
}

// hostReport is the BENCH_host.json document.
type hostReport struct {
	hostRun
	C10K    *c10kSection `json:"c10k,omitempty"`
	C1M     *c1mSection  `json:"c1m,omitempty"`
	SMP     *smpSection  `json:"smp,omitempty"`
	DC      *dcSection   `json:"dc,omitempty"`
	History []hostRun    `json:"history,omitempty"`
}

// loadHostReport reads an existing report so a new run can extend it; a
// missing file yields an empty report, a corrupt one an error (refuse
// to silently discard recorded history).
func loadHostReport(path string) (hostReport, error) {
	var r hostReport
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parse existing %s: %w", path, err)
	}
	return r, nil
}

// record prints a mode's output, then merges its section into the
// report at path, keeping every other section and the history; merge
// returns what it merged, for the log line. An empty path prints only.
func record(path, out string, merge func(r *hostReport) string) error {
	fmt.Print(out)
	if path == "" {
		return nil
	}
	r, err := loadHostReport(path)
	if err != nil {
		return err
	}
	what := merge(&r)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: merged %s into %s\n", what, path)
	return nil
}

// stamp is a record's generated_at.
func stamp() string { return time.Now().UTC().Format(time.RFC3339) }

// splitList parses a comma-separated flag value, skipping empty fields.
func splitList[T any](flagName, list string, parse func(string) (T, error)) ([]T, error) {
	var vs []T
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %w", flagName, list, err)
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// benchLine matches "BenchmarkName-8   123456   97.5 ns/op   0 B/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// runHost executes the benchmarks, prints their output and records the
// parsed results as the report's latest run, pushing the previous one
// onto the history array.
func runHost(pattern, outPath string) error {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-count", "1", "./..."}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "ptbench: running go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}

	run := hostRun{
		GeneratedAt: stamp(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPU:         hostCPU(),
		Pattern:     pattern,
		Command:     "go " + strings.Join(args, " "),
	}
	pkg := ""
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := hostBench{Pkg: pkg, Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			b.Metrics[fields[i+1]] = v
		}
		run.Benches = append(run.Benches, b)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(run.Benches) == 0 {
		return fmt.Errorf("no benchmark lines matched pattern %q", pattern)
	}
	return record(outPath, buf.String(), func(r *hostReport) string {
		if len(r.Benches) > 0 {
			r.History = append(r.History, r.hostRun)
		}
		r.hostRun = run
		return fmt.Sprintf("%d host results (%d prior runs in history)", len(run.Benches), len(r.History))
	})
}

// runC10K runs the thread-scaling suite up to maxThreads and records
// its points as the report's c10k section.
func runC10K(maxThreads, reps int, outPath string) error {
	var sizes []int
	for _, n := range eval.C10KSizes {
		if n <= maxThreads {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-c10kmax %d admits no ladder sizes %v", maxThreads, eval.C10KSizes)
	}
	pts, err := eval.RunC10K(sizes, reps)
	if err != nil {
		return err
	}
	return record(outPath, eval.FormatC10K(pts), func(r *hostReport) string {
		r.C10K = &c10kSection{
			GeneratedAt: stamp(),
			Command:     fmt.Sprintf("go run ./cmd/ptbench -c10k -c10kmax %d -c10kreps %d", maxThreads, reps),
			Points:      pts,
		}
		return fmt.Sprintf("%d c10k points", len(pts))
	})
}

// runC1M measures the resident-thread footprint at the requested
// population and records the point as the report's c1m section,
// pushing the previous point onto the section's history.
// eval.RunC1M fails outright when a resource invariant breaks (a
// parked thread holding a goroutine, the runner pool scaling with the
// population), so a recorded point is always one where the
// representation held; -diff then polices growth across records.
func runC1M(threads int, outPath string) error {
	pt, err := eval.RunC1M(threads)
	if err != nil {
		return err
	}
	return record(outPath, eval.FormatC1M(pt), func(r *hostReport) string {
		sec := r.C1M
		if sec == nil {
			sec = &c1mSection{}
		}
		if sec.Point.Threads != 0 {
			sec.History = append(sec.History, c1mEntry{
				GeneratedAt: sec.GeneratedAt,
				GoVersion:   sec.GoVersion,
				CPU:         sec.CPU,
				Point:       sec.Point,
			})
		}
		sec.GeneratedAt = stamp()
		sec.Command = fmt.Sprintf("go run ./cmd/ptbench -c1m -c1mthreads %d", threads)
		sec.GoVersion = runtime.Version()
		sec.CPU = hostCPU()
		sec.Point = pt
		r.C1M = sec
		return fmt.Sprintf("c1m point (%d threads, %d prior points)", threads, len(sec.History))
	})
}

// runSMP runs the simulated-SMP contention ladder and records its
// deterministic points as the report's smp section.
func runSMP(vcpus string, iters int, outPath string) error {
	cpus, err := splitList("smpvcpus", vcpus, strconv.Atoi)
	if err != nil {
		return err
	}
	pts, err := eval.RunSMPLadder(cpus, iters)
	if err != nil {
		return err
	}
	return record(outPath, eval.FormatSMP(pts), func(r *hostReport) string {
		r.SMP = &smpSection{
			GeneratedAt: stamp(),
			Command:     fmt.Sprintf("go run ./cmd/ptbench -smp -smpvcpus %s -smpiters %d", vcpus, iters),
			Points:      pts,
		}
		return fmt.Sprintf("%d smp points", len(pts))
	})
}

// runDC runs the virtual-datacenter ladder and records its
// deterministic points as the report's dc section.
func runDC(replicaList, lossList string, clients int, outPath string) error {
	replicas, err := splitList("dcreplicas", replicaList, strconv.Atoi)
	if err != nil {
		return err
	}
	losses, err := splitList("dcloss", lossList, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
	if err != nil {
		return err
	}
	pts, err := eval.RunDCLadder(replicas, losses, clients)
	if err != nil {
		return err
	}
	return record(outPath, eval.FormatDC(pts), func(r *hostReport) string {
		r.DC = &dcSection{
			GeneratedAt: stamp(),
			Command: fmt.Sprintf("go run ./cmd/ptbench -dc -dcreplicas %s -dcloss %s -dcclients %d",
				replicaList, lossList, clients),
			Points: pts,
		}
		return fmt.Sprintf("%d dc points", len(pts))
	})
}
