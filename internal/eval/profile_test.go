package eval

import (
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/metrics"
)

// TestProfiledWorkloadsRun exercises every named workload under the
// profiler and checks the 100%-accounting invariant on each.
func TestProfiledWorkloadsRun(t *testing.T) {
	for _, w := range ProfileWorkloads() {
		r, err := RunProfiled(w, metrics.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(r.Events) == 0 {
			t.Fatalf("%s: no trace events recorded", w)
		}
		for _, tp := range r.Collector.Threads() {
			if tp.Total() != tp.Lifetime() {
				t.Errorf("%s: thread %s accounts %v of a %v lifetime",
					w, tp.Name, tp.Total(), tp.Lifetime())
			}
		}
	}
}

// TestInversionWatchdogAcrossProtocols is the Figure 5 semantics as seen
// by the live watchdog: the no-protocol run is flagged, inheritance and
// ceiling stay quiet.
func TestInversionWatchdogAcrossProtocols(t *testing.T) {
	for w, wantInversion := range map[string]bool{
		"inversion":         true,
		"inversion-inherit": false,
		"inversion-ceiling": false,
	} {
		r, err := RunProfiled(w, metrics.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		got := len(r.Collector.FindingsOfKind("priority-inversion")) > 0
		if got != wantInversion {
			t.Errorf("%s: inversion flagged = %v, want %v (findings: %v)",
				w, got, wantInversion, r.Collector.Findings())
		}
	}

	// The flagged window must cover the wait the scenario constructs:
	// it opens when P2 is dispatched during P3's wait (after t1 = 10ms)
	// and closes at the grant, after P1's 30ms critical section.
	r, err := RunProfiled("inversion", metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := r.Collector.FindingsOfKind("priority-inversion")[0]
	if f.Thread != "P3" || f.Object != "M" {
		t.Fatalf("finding names %s/%s, want P3/M", f.Thread, f.Object)
	}
	if f.At < 10*1e6 || f.At > 20*1e6 {
		t.Errorf("window opens at %v, want shortly after the 10ms release time", f.At)
	}
	if f.End < 40*1e6 {
		t.Errorf("window closes at %v, want after P1's 30ms critical section", f.End)
	}
}

// TestDeadlockWorkloadFinding pins the wait-for-cycle watchdog on the
// AB-BA scenario: the cycle is reported, and the run itself died with
// the kernel's deadlock diagnosis.
func TestDeadlockWorkloadFinding(t *testing.T) {
	r, err := RunProfiled("deadlock", metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.RunErr == nil {
		t.Fatal("deadlock run terminated cleanly")
	}
	finds := r.Collector.FindingsOfKind("deadlock")
	if len(finds) == 0 {
		t.Fatalf("no deadlock finding; findings: %v", r.Collector.Findings())
	}
}

// TestProfiledRunDeterministic pins the profiler's reproducibility: two
// runs of the same workload export identical profiles.
func TestProfiledRunDeterministic(t *testing.T) {
	a, err := RunProfiled("webserver", metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProfiled("webserver", metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := metrics.ChromeTrace(a.Events, a.Collector.Findings(), int64(a.End))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := metrics.ChromeTrace(b.Events, b.Collector.Findings(), int64(b.End))
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("webserver chrome export differs across two runs")
	}
	if metrics.FormatText(a.Profile, 5) != metrics.FormatText(b.Profile, 5) {
		t.Fatal("webserver text profile differs across two runs")
	}
}

// TestCollectorDoesNotPerturbRun is the observer-effect check: the
// same scenario with and without the collector attached as its tracer
// ends at the same virtual instant with the same statistics — trace
// events charge no virtual cost.
func TestCollectorDoesNotPerturbRun(t *testing.T) {
	plain, err := RunNetScenario(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New(metrics.Options{})
	profiled, err := runNetScenario(4, 16, func(cfg *core.Config) { cfg.Tracer = col })
	if err != nil {
		t.Fatal(err)
	}
	if plain.End != profiled.End {
		t.Fatalf("virtual end moved: %v without metrics, %v with", plain.End, profiled.End)
	}
	if plain.Stats != profiled.Stats {
		t.Fatalf("kernel stats moved:\nwithout: %+v\nwith:    %+v", plain.Stats, profiled.Stats)
	}
}
