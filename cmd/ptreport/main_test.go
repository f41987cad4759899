package main

import (
	"regexp"
	"strings"
	"testing"
)

// hostReadings matches the mem section's host measurements (heap
// bytes, goroutine delta and wall-clock time), the one part of the
// report that differs between runs.
var hostReadings = regexp.MustCompile(`(?m)^(  (?:bytes/resident|goroutine delta|setup host ms|drain host ms)) +[0-9.-]+$`)

// masked blanks the host measurements.
func masked(s string) string { return hostReadings.ReplaceAllString(s, "$1 #") }

// ptreport runs one command line and returns its stdout, failing the
// test on a non-zero exit.
func ptreport(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("ptreport %v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// Every section prints alone exactly as it appears in the full report:
// the report is each section's own output, in table order, followed by
// a blank line — the opt-in sections only with their flags. Host
// measurements are masked.
func TestEachSectionIsItsSliceOfTheReport(t *testing.T) {
	var optIn []string
	for _, sec := range sections {
		if sec.optIn != "" {
			optIn = append(optIn, "-"+sec.name)
		}
	}
	for _, args := range [][]string{nil, optIn} {
		rest := masked(ptreport(t, args...))
		for _, sec := range sections {
			if sec.optIn != "" && args == nil {
				continue
			}
			one := masked(ptreport(t, sec.name))
			if one == "" {
				t.Errorf("ptreport %s printed nothing", sec.name)
			}
			if !strings.HasPrefix(rest, one+"\n") {
				t.Fatalf("ptreport %s is not its slice of ptreport %v:\n%s", sec.name, args, one)
			}
			rest = rest[len(one)+1:]
		}
		if rest != "" {
			t.Errorf("ptreport %v has output no section prints:\n%s", args, rest)
		}
	}
}

// A section's flags apply when it prints alone, and bad names and
// arguments are refused.
func TestSectionFlagsAndErrors(t *testing.T) {
	if ptreport(t, "pervert", "-seed", "3") == ptreport(t, "pervert") {
		t.Error("pervert -seed 3 printed the seed-1 section")
	}
	for _, args := range [][]string{
		{"table5"},
		{"table2", "extra"},
		{"inversion", "-table", "4"},
		{"trace", "-scenario", "inversion"},
	} {
		var stdout, stderr strings.Builder
		if run(args, &stdout, &stderr) == 0 {
			t.Errorf("ptreport %v succeeded", args)
		}
	}
}

// The trace command draws each canned scenario's timeline, with the
// raw event list on request.
func TestTraceScenarios(t *testing.T) {
	for name := range traceScenarios {
		chart := ptreport(t, "trace", "-scenario", name)
		if !strings.HasPrefix(chart, `scenario "`+name+`":`) || !strings.Contains(chart, "'=' running") {
			t.Errorf("trace %s:\n%s", name, chart)
		}
		dump := ptreport(t, "trace", "-scenario", name, "-dump")
		if !strings.HasPrefix(dump, chart+"\n") || len(dump) <= len(chart)+1 {
			t.Errorf("trace %s -dump does not extend the chart with the event list", name)
		}
	}
}
