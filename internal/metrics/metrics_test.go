package metrics_test

import (
	"encoding/json"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/metrics"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// runContended executes a three-thread contended-mutex workload with
// both the collector and the trace recorder attached, so tests can
// compare the two observers of the same run.
func runContended(t *testing.T) (*metrics.Collector, *trace.Recorder, vtime.Time) {
	t.Helper()
	col := metrics.New(metrics.Options{})
	rec := trace.New()
	// Round-robin slicing forces preemption inside the critical section,
	// so the other threads actually contend for the mutex.
	s := core.New(core.Config{Tracer: rec, Metrics: col, Quantum: 100 * vtime.Microsecond})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "M"})
		var ths []*core.Thread
		for i := 0; i < 3; i++ {
			attr := core.DefaultAttr()
			attr.Name = []string{"a", "b", "c"}[i]
			attr.Policy = core.SchedRR
			th, _ := s.Create(attr, func(any) any {
				for j := 0; j < 4; j++ {
					m.Lock()
					s.Compute(300 * vtime.Microsecond)
					m.Unlock()
					s.Compute(50 * vtime.Microsecond)
				}
				return nil
			}, nil)
			ths = append(ths, th)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	end := s.Now()
	col.Finalize(end)
	return col, rec, end
}

// TestCrossCheckWaitIntervals is the metrics-vs-trace consistency check:
// the collector's wait histogram for one mutex must equal the sum of the
// wait intervals derivable from the trace stream (block→grant per
// thread), because both observers see the same virtual instants.
func TestCrossCheckWaitIntervals(t *testing.T) {
	col, rec, _ := runContended(t)
	mp := col.MutexByName("M")
	if mp == nil {
		t.Fatal("no profile for mutex M")
	}
	if mp.Contentions == 0 {
		t.Fatal("workload produced no contention; the cross-check is vacuous")
	}

	var traceSum vtime.Duration
	var traceN int64
	for _, name := range rec.ThreadNames() {
		for _, iv := range rec.WaitIntervals(name, "M") {
			traceSum += iv.To.Sub(iv.From)
			traceN++
		}
	}
	if traceSum != mp.Wait.Sum {
		t.Fatalf("trace-derived wait total %v != collector wait total %v", traceSum, mp.Wait.Sum)
	}
	if traceN != mp.Wait.Count {
		t.Fatalf("trace-derived wait count %d != collector wait count %d", traceN, mp.Wait.Count)
	}
}

// TestAttributionComplete pins the 100%-accounting invariant on the
// contended workload: every thread's bucket sum equals its lifetime.
func TestAttributionComplete(t *testing.T) {
	col, _, _ := runContended(t)
	if len(col.Threads()) < 4 {
		t.Fatalf("only %d threads profiled", len(col.Threads()))
	}
	for _, tp := range col.Threads() {
		if tp.Total() != tp.Lifetime() {
			t.Fatalf("thread %s: buckets sum to %v of a %v lifetime", tp.Name, tp.Total(), tp.Lifetime())
		}
	}
}

// TestHoldAndAcquisitionCounts sanity-checks the per-mutex ledgers: 12
// acquisitions (3 threads × 4 iterations), every acquisition released,
// hold durations at least the critical-section compute.
func TestHoldAndAcquisitionCounts(t *testing.T) {
	col, _, _ := runContended(t)
	mp := col.MutexByName("M")
	if mp.Acquisitions != 12 {
		t.Fatalf("acquisitions=%d, want 12", mp.Acquisitions)
	}
	if mp.Hold.Count != 12 {
		t.Fatalf("holds=%d, want 12", mp.Hold.Count)
	}
	if mp.Hold.Mean() < 300*vtime.Microsecond {
		t.Fatalf("mean hold %v shorter than the critical section", mp.Hold.Mean())
	}
	if len(mp.OwnerAtContention) == 0 {
		t.Fatal("no owner-at-contention attribution recorded")
	}
}

// TestCancelledCondWaitIsRecorded cancels a condition waiter after 1 ms:
// the cancellation ends the wait like a signal, a timeout or a handler
// does, so the wait histogram records every counted wait, this one at
// its full length.
func TestCancelledCondWaitIsRecorded(t *testing.T) {
	col := metrics.New(metrics.Options{})
	s := core.New(core.Config{Metrics: col})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "m"})
		c := s.NewCond("c")
		attr := core.DefaultAttr()
		attr.Name = "waiter"
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			m.Lock()
			s.CleanupPush(func(any) { m.Unlock() }, nil)
			c.Wait(m)
			return "never"
		}, nil)
		s.Compute(vtime.Millisecond)
		s.Cancel(th)
		if v, _ := s.Join(th); v != core.Canceled {
			t.Errorf("waiter returned %v, want cancellation", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Finalize(s.Now())
	if len(col.Conds()) != 1 {
		t.Fatalf("%d condition variables profiled, want 1", len(col.Conds()))
	}
	cp := col.Conds()[0]
	if cp.Waits != 1 || cp.Wait.Count != cp.Waits {
		t.Fatalf("Waits=%d, Wait.Count=%d: a cancelled wait must be recorded", cp.Waits, cp.Wait.Count)
	}
	if cp.Wait.Sum < vtime.Millisecond {
		t.Errorf("cancelled wait recorded as %v, want at least the 1 ms it lasted", cp.Wait.Sum)
	}
}

// TestCollectorHooksDoNotAllocate drives the hottest hooks through
// pre-sized tables and asserts zero allocations per event — the on-mode
// half of the zero-cost contract (the off-mode half is a nil check).
func TestCollectorHooksDoNotAllocate(t *testing.T) {
	col, _, _ := runContended(t)
	tp := col.Threads()[1].T
	mp := col.MutexByName("M").M
	at := vtime.Time(1 << 40)
	if a := testing.AllocsPerRun(1000, func() {
		col.ThreadState(at, tp, core.StateReady, core.BlockNone)
		at += 10
		col.ThreadState(at, tp, core.StateRunning, core.BlockNone)
		at += 10
		col.MutexAcquired(at, tp, mp, false)
		at += 10
		col.MutexReleased(at, tp, mp)
	}); a != 0 {
		t.Fatalf("hot hooks allocate %.2f per cycle, want 0", a)
	}
}

// TestChromeExport checks the trace-event JSON: valid, deterministic,
// balanced B/E per track, and findings present as global instants.
func TestChromeExport(t *testing.T) {
	col, rec, end := runContended(t)
	data, err := metrics.ChromeTrace(rec.Events, col.Findings(), int64(end))
	if err != nil {
		t.Fatal(err)
	}
	data2, err := metrics.ChromeTrace(rec.Events, col.Findings(), int64(end))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("chrome export not deterministic for identical input")
	}

	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit=%q", parsed.DisplayTimeUnit)
	}
	depth := map[int]int{}
	var lastTS float64
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[ev.TID]++
		case "E":
			depth[ev.TID]--
			if depth[ev.TID] < 0 {
				t.Fatalf("unbalanced E on tid %d", ev.TID)
			}
		case "i", "M":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Ph != "M" && ev.TS < lastTS && ev.Ph != "i" {
			// B/E events must be time-ordered per the format.
			t.Fatalf("timestamps regress at %q: %v < %v", ev.Name, ev.TS, lastTS)
		}
		if ev.Ph != "M" && ev.TS > lastTS {
			lastTS = ev.TS
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d ends with %d unclosed slices", tid, d)
		}
	}
}

// TestWatchdogLongHoldAndStarvation drives the threshold watchdogs: a
// long critical section under contention trips both.
func TestWatchdogLongHoldAndStarvation(t *testing.T) {
	col := metrics.New(metrics.Options{
		LongHold:   5 * vtime.Millisecond,
		Starvation: 5 * vtime.Millisecond,
	})
	s := core.New(core.Config{Metrics: col})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "M"})
		attr := core.DefaultAttr()
		attr.Name = "hog"
		hog, _ := s.Create(attr, func(any) any {
			m.Lock()
			s.Compute(20 * vtime.Millisecond)
			m.Unlock()
			return nil
		}, nil)
		attr.Name = "victim"
		victim, _ := s.Create(attr, func(any) any {
			s.Sleep(vtime.Millisecond)
			m.Lock()
			m.Unlock()
			return nil
		}, nil)
		s.Join(hog)
		s.Join(victim)
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Finalize(s.Now())
	if len(col.FindingsOfKind("long-hold")) == 0 {
		t.Fatalf("20ms hold above a 5ms threshold unflagged; findings: %v", col.Findings())
	}
	if len(col.FindingsOfKind("starvation")) == 0 {
		t.Fatalf("multi-ms mutex-wait dispatch gap unflagged; findings: %v", col.Findings())
	}
}
