// Command ptprof runs a named workload under the virtual-time profiler
// and reports where every thread's virtual time went: the attribution
// table, per-object latency histograms, watchdog findings, and — via
// -chrome — a Chrome trace-event JSON file loadable in Perfetto or
// chrome://tracing, whose timeline is the virtual clock.
//
//	ptprof -workload webserver -chrome web.json
//	ptprof -workload inversion -expect inversion
//	ptprof -workload webserver -check
//
// With -fleet, ptprof runs a named fleet scenario instead: every
// simulated host becomes its own process group in the export (distinct
// pid and process_name), all sharing the one virtual timeline.
//
//	ptprof -fleet fleet-echo -chrome fleet.json
//	ptprof -fleet fleet-echo -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pthreads/internal/eval"
	"pthreads/internal/fabric"
	"pthreads/internal/metrics"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ptprof: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "webserver",
		"scenario to profile: "+strings.Join(eval.ProfileWorkloads(), ", "))
	top := flag.Int("top", 10, "rows per object section in the text profile (0 = all)")
	chrome := flag.String("chrome", "", "write Chrome trace-event JSON to this file")
	jsonOut := flag.String("json", "", "write the machine-readable profile JSON to this file")
	check := flag.Bool("check", false, "run self-checks: determinism, attribution, JSON validity")
	expect := flag.String("expect", "", "assert the watchdog outcome: inversion, deadlock, or clean")
	longHold := flag.Duration("long-hold", 0, "flag mutex holds at least this long (host units map 1:1 to virtual)")
	starvation := flag.Duration("starvation", 0, "flag dispatch latencies at least this long")
	fleet := flag.String("fleet", "", "profile a fleet scenario instead of a workload (fleet-echo, ...)")
	spans := flag.Bool("spans", false, "with -fleet: record distributed spans and draw cross-host flow arrows")
	quiet := flag.Bool("q", false, "suppress the text profile (checks and exports only)")
	flag.Parse()

	// Flag validation up front, every violation the same way: a message
	// and exit 1 (never a silent ignore, never a stray zero exit).
	if flag.NArg() > 0 {
		fail("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *top < 0 {
		fail("-top must be >= 0 (got %d)", *top)
	}
	if *spans && *fleet == "" {
		fail("-spans requires -fleet")
	}
	if *fleet != "" {
		if *expect != "" || *jsonOut != "" || *longHold != 0 || *starvation != 0 {
			fail("-expect, -json, -long-hold and -starvation apply to workload profiles, not -fleet")
		}
		runFleet(*fleet, *chrome, *check, *spans, *quiet)
		return
	}

	opt := metrics.Options{
		LongHold:   vtime.Duration(*longHold / time.Nanosecond),
		Starvation: vtime.Duration(*starvation / time.Nanosecond),
	}

	run, err := eval.RunProfiled(*workload, opt)
	if err != nil {
		fail("%v", err)
	}

	if !*quiet {
		fmt.Print(metrics.FormatText(run.Profile, *top))
	}

	if *chrome != "" {
		data, err := metrics.ChromeTrace(run.Events, run.Collector.Findings(), int64(run.End))
		if err != nil {
			fail("chrome export: %v", err)
		}
		if err := os.WriteFile(*chrome, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ptprof: wrote %s (%d events, %d bytes)\n", *chrome, len(run.Events), len(data))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(run.Profile, "", "  ")
		if err != nil {
			fail("profile export: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ptprof: wrote %s\n", *jsonOut)
	}

	if *expect != "" {
		assertExpect(run, *expect)
	}
	if *check {
		selfCheck(*workload, opt, run)
	}
}

// runFleet profiles a whole virtual datacenter: one scenario run, every
// host exported as its own process on the shared virtual timeline. With
// spans, the observability plane rides along: span tracks per host,
// flow arrows across them, and the fleet report on stdout.
func runFleet(name, chrome string, check, spans, quiet bool) {
	sc := fabric.FleetScenarioByName(name)
	if sc == nil {
		var known []string
		for _, s := range fabric.FleetScenarios() {
			known = append(known, s.Name)
		}
		fail("unknown fleet scenario %q (have: %s)", name, strings.Join(known, ", "))
	}
	oc := fabric.ObsConfig{}
	if spans {
		oc = fabric.ObsConfig{Spans: true, Rollup: true, WaitCycle: true}
	}
	out := fabric.Observe(*sc, oc)
	if out.Failure != "" {
		fail("fleet %s: %s", name, out.Failure)
	}
	data, err := fleetExport(out)
	if err != nil {
		fail("fleet chrome export: %v", err)
	}
	nev := 0
	for _, h := range out.Hosts {
		nev += len(h.Events)
	}
	fmt.Printf("fleet %s: %d hosts, %d trace events, fingerprint %s, trace hash %s\n",
		name, len(out.Hosts), nev, out.Fingerprint, out.TraceHash)
	if out.Obs != nil && !quiet {
		fmt.Print(out.Obs.Format())
	}
	if chrome != "" {
		if err := os.WriteFile(chrome, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ptprof: wrote %s (%d bytes)\n", chrome, len(data))
	}
	if check {
		second := fabric.Observe(*sc, oc)
		if second.TraceHash != out.TraceHash || second.Fingerprint != out.Fingerprint {
			fail("check: fleet run not deterministic: %s/%s vs %s/%s",
				out.Fingerprint, out.TraceHash, second.Fingerprint, second.TraceHash)
		}
		data2, err := fleetExport(second)
		if err != nil {
			fail("check: fleet chrome export (rerun): %v", err)
		}
		if string(data) != string(data2) {
			fail("check: fleet chrome export differs between two runs — determinism broken")
		}
		if spans {
			// The plane's contract: spans observe, never perturb. A
			// spans-off run of the same scenario must schedule
			// identically.
			bare := fabric.Observe(*sc, fabric.ObsConfig{})
			if bare.TraceHash != out.TraceHash || bare.Fingerprint != out.Fingerprint {
				fail("check: spans perturbed the schedule: %s/%s with, %s/%s without",
					out.Fingerprint, out.TraceHash, bare.Fingerprint, bare.TraceHash)
			}
			// And the stream itself must be a well-formed trace forest.
			if err := trace.ValidateSpans(out.Obs.Spans, out.Obs.Msgs); err != nil {
				fail("check: %v", err)
			}
		}
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &parsed); err != nil {
			fail("check: fleet chrome export is not valid JSON: %v", err)
		}
		pids := map[float64]bool{}
		for _, ev := range parsed.TraceEvents {
			if pid, ok := ev["pid"].(float64); ok {
				pids[pid] = true
			}
		}
		if len(pids) != len(out.Hosts) {
			fail("check: export has %d distinct pids for %d hosts", len(pids), len(out.Hosts))
		}
		fmt.Fprintf(os.Stderr,
			"ptprof: check ok — fleet deterministic across runs, %d chrome events parse, %d host process groups\n",
			len(parsed.TraceEvents), len(pids))
	}
}

// fleetTraces adapts a fleet outcome into the exporter's host slices.
func fleetTraces(out fabric.FleetOutcome) []metrics.HostTrace {
	hosts := make([]metrics.HostTrace, len(out.Hosts))
	for i, h := range out.Hosts {
		hosts[i] = metrics.HostTrace{Name: h.Name, Events: h.Events, End: int64(h.End)}
	}
	return hosts
}

// fleetExport renders the outcome's Chrome JSON, with the span overlay
// when the run recorded one.
func fleetExport(out fabric.FleetOutcome) ([]byte, error) {
	if out.Obs != nil && len(out.Obs.Spans) > 0 {
		return metrics.ChromeTraceFleetSpans(fleetTraces(out), out.Obs.Spans, out.Obs.Msgs)
	}
	return metrics.ChromeTraceFleet(fleetTraces(out))
}

// assertExpect enforces the watchdog outcome the caller demands; the
// verify script uses it to pin the Figure 5 semantics.
func assertExpect(run *eval.ProfiledRun, want string) {
	inv := len(run.Collector.FindingsOfKind("priority-inversion"))
	dead := len(run.Collector.FindingsOfKind("deadlock"))
	switch want {
	case "inversion":
		if inv == 0 {
			fail("expected a priority-inversion finding; watchdog stayed quiet")
		}
	case "deadlock":
		if dead == 0 {
			fail("expected a deadlock finding; watchdog stayed quiet")
		}
	case "clean":
		if n := len(run.Collector.Findings()); n != 0 {
			fail("expected no findings; got %d: %v", n, run.Collector.Findings()[0])
		}
	default:
		fail("unknown -expect value %q (inversion, deadlock, clean)", want)
	}
	fmt.Fprintf(os.Stderr, "ptprof: expectation %q holds\n", want)
}

// selfCheck reruns the workload and verifies the profiler's contracts:
// (1) the run is deterministic — the Chrome export and profile JSON are
// byte-identical across runs; (2) the export is valid JSON; (3) the
// attribution is complete — every thread's bucket sum equals its
// lifetime, so 100% of virtual time is accounted for.
func selfCheck(workload string, opt metrics.Options, first *eval.ProfiledRun) {
	second, err := eval.RunProfiled(workload, opt)
	if err != nil {
		fail("check rerun: %v", err)
	}

	c1, err := metrics.ChromeTrace(first.Events, first.Collector.Findings(), int64(first.End))
	if err != nil {
		fail("check: chrome export: %v", err)
	}
	c2, err := metrics.ChromeTrace(second.Events, second.Collector.Findings(), int64(second.End))
	if err != nil {
		fail("check: chrome export (rerun): %v", err)
	}
	if string(c1) != string(c2) {
		fail("check: chrome export differs between two runs — determinism broken")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(c1, &parsed); err != nil {
		fail("check: chrome export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		fail("check: chrome export has no events")
	}

	j1, _ := json.Marshal(first.Profile)
	j2, _ := json.Marshal(second.Profile)
	if string(j1) != string(j2) {
		fail("check: profile JSON differs between two runs — determinism broken")
	}

	for _, tp := range first.Collector.Threads() {
		if tp.Total() != tp.Lifetime() {
			fail("check: thread %s accounts %v of a %v lifetime — attribution incomplete",
				tp.Name, tp.Total(), tp.Lifetime())
		}
	}
	fmt.Fprintf(os.Stderr,
		"ptprof: check ok — deterministic across runs, %d chrome events parse, %d threads account 100%% of virtual time\n",
		len(parsed.TraceEvents), len(first.Collector.Threads()))
}
