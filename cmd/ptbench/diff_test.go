package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pthreads/internal/eval"
)

// The synthetic fixture plants six distinct regression shapes — a
// deterministic vus/op slowdown, an allocs/op creep from zero, an
// env-matched ns/op blowup, a c1m runner-pool peak past the absolute
// budget, a c1m bytes/resident growth against a matched-env footprint
// record, and a c10k dispatch row that is not flat (200 -> 300 ns/op
// from 8 to 1,000 threads) — plus deltas that must NOT trip the gate: a
// cross-environment ns/op difference, a cross-environment
// bytes/resident difference, a flat mutex row and a timer row, which
// the flatness bound does not cover.
func TestDiffFlagsSyntheticRegression(t *testing.T) {
	err := runDiff(filepath.Join("testdata", "regression.json"))
	if err == nil {
		t.Fatal("gate passed a fixture with planted >15% regressions")
	}
	msg := err.Error()
	for _, want := range []string{
		"BenchmarkNetEcho vus/op: 160 vs 100",
		"BenchmarkContextSwitch allocs/op: 2 vs 0",
		"BenchmarkContextSwitch ns/op: 900 vs 400",
		"c1m[1000000 threads] runner_peak: 4096 vs 1",
		"c1m[1000000 threads] bytes_per_resident: 2600 vs 1150",
		"c10k[dispatch 1000 threads] host_ns/op: 300 vs 200 in c10k[dispatch 8 threads]",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate output missing %q:\n%s", want, msg)
		}
	}
	// history[1] is a darwin/arm64 go1.23 run whose tiny ns/op would
	// make every wall-clock comparison "regress"; the env filter must
	// keep it out of the ns/op gate entirely. The c1m section carries
	// the same trap: an other-machine record with tiny heap bytes.
	if strings.Contains(msg, "BenchmarkNetEcho ns/op") {
		t.Errorf("gate compared ns/op across mismatched host environments:\n%s", msg)
	}
	if strings.Contains(msg, "bytes_per_resident: 2600 vs 100 ") {
		t.Errorf("gate compared bytes/resident across mismatched host environments:\n%s", msg)
	}
	if strings.Contains(msg, "c10k[mutex") || strings.Contains(msg, "c10k[timer") {
		t.Errorf("gate flagged a flat or ungated c10k scenario:\n%s", msg)
	}
	if !strings.Contains(msg, "6 perf regression(s)") {
		t.Errorf("want exactly 6 deduplicated regressions, got:\n%s", msg)
	}
}

// A c1m point whose gauges blow the absolute budget must fail even
// when the report has no host-bench history to compare against (the
// budget is a property of the representation, not of a baseline), and
// a within-budget point must pass the same history-less report.
func TestDiffC1MAbsoluteBudget(t *testing.T) {
	dir := t.TempDir()
	write := func(goroutines int) string {
		path := filepath.Join(dir, "c1m.json")
		data := `{"go_version":"go1.24.0","goos":"linux","goarch":"amd64",` +
			`"pattern":"X","command":"c",` +
			`"benches":[{"pkg":"p","name":"BenchmarkX","iterations":1,"metrics":{"ns/op":1}}],` +
			`"c1m":{"command":"c","point":{"threads":1000,"bytes_per_resident":1100,` +
			`"runner_peak":1,"goroutine_delta":` + strconv.Itoa(goroutines) +
			`,"cont_parked":1000,"arena_chunks":2,"arena_slot_bytes":792,` +
			`"setup_host_ms":1,"drain_host_ms":1}}}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := runDiff(write(1000)); err == nil {
		t.Error("gate passed a goroutine-backed population (delta 1000 for 1000 threads)")
	} else if !strings.Contains(err.Error(), "goroutine_delta: 1000 vs 8") {
		t.Errorf("unexpected gate output: %v", err)
	}
	if err := runDiff(write(1)); err != nil {
		t.Errorf("gate failed a within-budget history-less c1m point: %v", err)
	}
}

// The clean fixture moves within tolerance, adds a new benchmark with
// no baseline, drops an old one, and carries a c10k section whose
// dispatch and mutex rows stay within 1.4x — none of which is a
// regression.
func TestDiffPassesCleanReport(t *testing.T) {
	if err := runDiff(filepath.Join("testdata", "clean.json")); err != nil {
		t.Fatalf("gate failed a clean report: %v", err)
	}
}

// A report without history has nothing to gate against and must pass
// (the first -host run on a fresh checkout should not fail verify).
func TestDiffNoHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	data := `{"go_version":"go1.24.0","goos":"linux","goarch":"amd64",` +
		`"pattern":"X","command":"c",` +
		`"benches":[{"pkg":"p","name":"BenchmarkX","iterations":1,"metrics":{"ns/op":1}}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runDiff(path); err != nil {
		t.Fatalf("gate failed a history-less report: %v", err)
	}
}

// Missing and empty reports are loud errors, not silent passes.
func TestDiffBadInputs(t *testing.T) {
	if err := runDiff(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("gate passed a missing report")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runDiff(path); err == nil {
		t.Error("gate passed a report with no latest run")
	}
}

// A report holding only a c10k section, as a -c10k run into a fresh
// -out writes it, is gated on flatness alone: 1.4x passes, and a mutex
// row past it fails by scenario.
func TestDiffC10KOnlyReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c10k.json")
	write := func(mutexHi float64) {
		r := hostReport{C10K: &c10kSection{Points: []eval.C10KPoint{
			{Scenario: "dispatch", Threads: 8, HostNSOp: 200},
			{Scenario: "dispatch", Threads: 1000, HostNSOp: 280},
			{Scenario: "mutex", Threads: 8, HostNSOp: 20},
			{Scenario: "mutex", Threads: 100, HostNSOp: mutexHi},
			{Scenario: "mutex", Threads: 1000, HostNSOp: 21},
		}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(28)
	if err := runDiff(path); err != nil {
		t.Errorf("gate failed rungs within 1.4x: %v", err)
	}
	write(29)
	err := runDiff(path)
	if err == nil || !strings.Contains(err.Error(), "c10k[mutex 100 threads] host_ns/op: 29 vs 20 in c10k[mutex 8 threads]") {
		t.Errorf("gate missed a mutex rung at 1.45x: %v", err)
	}
}
