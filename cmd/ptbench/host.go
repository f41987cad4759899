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

// Host-benchmark mode: -host runs the repository's hot-path Go
// benchmarks on the host machine (real nanoseconds, not virtual time)
// and writes the parsed results as JSON. The file keeps the latest run
// at the top level and every previous run in a history array, so the
// checked-in BENCH_host.json carries the performance trajectory of the
// reproduction itself across PRs, alongside the virtual-time tables
// that must never move. -c10k runs the thread-scaling suite and merges
// its section into the same document.
//
// Regenerate with:
//
//	go run ./cmd/ptbench -host
//	go run ./cmd/ptbench -c10k
//
// The default pattern covers the scheduler-queue and synchronization
// fast paths plus the core composite latencies; -hostbench overrides it.
// The NetEcho / NetEchoSpans pair records the observability plane's
// cost on the hottest I/O path — and NetEcho's allocs/op staying 0 with
// spans off is a -diff-gated contract.
const defaultHostPattern = "EnqueueDequeue|PeekMaxLoaded|Remove$|MutexNoContention|" +
	"MutexProtocols|ContextSwitch$|ContextSwitchCont$|SemaphoreSync$|ThreadCreate$|RingRecorderEvent|NetEcho$|" +
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

func writeHostReport(path string, r hostReport) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// benchLine matches "BenchmarkName-8   123456   97.5 ns/op   0 B/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// runHost executes the benchmarks and merges the results into the JSON
// report at outPath: the previous latest run (if any) is pushed onto
// the history array, and any recorded C10k section is carried forward.
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
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPU:         hostCPU(),
		Pattern:     pattern,
		Command:     "go " + strings.Join(args, " "),
	}

	pkg := ""
	sc := bufio.NewScanner(&buf)
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

	report, err := loadHostReport(outPath)
	if err != nil {
		return err
	}
	if len(report.Benches) > 0 {
		report.History = append(report.History, report.hostRun)
	}
	report.hostRun = run
	if err := writeHostReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: wrote %d results to %s (%d prior runs in history)\n",
		len(run.Benches), outPath, len(report.History))
	return nil
}

// runC10K runs the thread-scaling suite up to maxThreads, prints the
// table, and merges the points into the report's c10k section (the
// benches and history are untouched).
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
	fmt.Print(eval.FormatC10K(pts))

	report, err := loadHostReport(outPath)
	if err != nil {
		return err
	}
	report.C10K = &c10kSection{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Command:     fmt.Sprintf("go run ./cmd/ptbench -c10k -c10kmax %d -c10kreps %d", maxThreads, reps),
		Points:      pts,
	}
	if err := writeHostReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: merged %d c10k points into %s\n", len(pts), outPath)
	return nil
}

// runC1M measures the resident-thread footprint at the requested
// population, prints the point, and merges it into the report's c1m
// section, pushing the previous point onto the section's history.
// eval.RunC1M fails outright when a resource invariant breaks (a
// parked thread holding a goroutine, the runner pool scaling with the
// population), so a recorded point is always one where the
// representation held; -diff then polices growth across records.
func runC1M(threads int, outPath string) error {
	pt, err := eval.RunC1M(threads)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatC1M(pt))
	if outPath == "" {
		return nil
	}

	report, err := loadHostReport(outPath)
	if err != nil {
		return err
	}
	sec := report.C1M
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
	sec.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	sec.Command = fmt.Sprintf("go run ./cmd/ptbench -c1m -c1mthreads %d", threads)
	sec.GoVersion = runtime.Version()
	sec.CPU = hostCPU()
	sec.Point = pt
	report.C1M = sec
	if err := writeHostReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: merged c1m point (%d threads) into %s (%d prior points)\n",
		threads, outPath, len(sec.History))
	return nil
}

// runSMP runs the simulated-SMP contention ladder, prints the
// deterministic table, and merges the points into the report's smp
// section. With an empty outPath the table is printed without touching
// any report — the determinism gate uses that to diff two runs' stdout.
func runSMP(vcpus string, iters int, outPath string) error {
	var cpus []int
	for _, f := range strings.Split(vcpus, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("-smpvcpus %q: %w", vcpus, err)
		}
		cpus = append(cpus, n)
	}
	pts, err := eval.RunSMPLadder(cpus, iters)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatSMP(pts))
	if outPath == "" {
		return nil
	}

	report, err := loadHostReport(outPath)
	if err != nil {
		return err
	}
	report.SMP = &smpSection{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Command:     fmt.Sprintf("go run ./cmd/ptbench -smp -smpvcpus %s -smpiters %d", vcpus, iters),
		Points:      pts,
	}
	if err := writeHostReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: merged %d smp points into %s\n", len(pts), outPath)
	return nil
}

// runDC runs the virtual-datacenter ladder, prints the deterministic
// table, and merges the points into the report's dc section. With an
// empty outPath the table is printed without touching any report — the
// determinism gate diffs two runs' stdout.
func runDC(replicaCSV, lossCSV string, clients int, outPath string) error {
	var replicas []int
	for _, f := range strings.Split(replicaCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("-dcreplicas %q: %w", replicaCSV, err)
		}
		replicas = append(replicas, n)
	}
	var losses []float64
	for _, f := range strings.Split(lossCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("-dcloss %q: %w", lossCSV, err)
		}
		losses = append(losses, v)
	}
	pts, err := eval.RunDCLadder(replicas, losses, clients)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatDC(pts))
	if outPath == "" {
		return nil
	}

	report, err := loadHostReport(outPath)
	if err != nil {
		return err
	}
	report.DC = &dcSection{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Command: fmt.Sprintf("go run ./cmd/ptbench -dc -dcreplicas %s -dcloss %s -dcclients %d",
			replicaCSV, lossCSV, clients),
		Points: pts,
	}
	if err := writeHostReport(outPath, report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: merged %d dc points into %s\n", len(pts), outPath)
	return nil
}
