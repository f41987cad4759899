package metrics_test

import (
	"encoding/json"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/metrics"
	"pthreads/internal/trace"
	"pthreads/internal/unixkern"
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
	s := core.New(core.Config{Tracer: trace.Tee{rec, col}, Quantum: 100 * vtime.Microsecond})
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
	s := core.New(core.Config{Tracer: col})
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

// TestCollectorHooksDoNotAllocate drives the hottest events (lock,
// unlock, ready, dispatch) through the collector's pre-sized tables on
// a live system and asserts zero allocations per cycle — the on-mode
// half of the zero-cost contract (the off-mode half is a nil check).
func TestCollectorHooksDoNotAllocate(t *testing.T) {
	col := metrics.New(metrics.Options{})
	s := core.New(core.Config{Tracer: col})
	var allocs float64
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "M"})
		stop := false
		partner, _ := s.Create(core.DefaultAttr(), func(any) any {
			for !stop {
				s.Yield()
			}
			return nil
		}, nil)
		allocs = testing.AllocsPerRun(1000, func() {
			m.Lock()
			m.Unlock()
			s.Yield()
		})
		stop = true
		s.Join(partner)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mp := col.MutexByName("M"); mp == nil || mp.Acquisitions < 1000 {
		t.Fatal("the collector did not see the measured locks")
	}
	if allocs != 0 {
		t.Fatalf("hot events allocate %.2f per cycle, want 0", allocs)
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
	s := core.New(core.Config{Tracer: col})
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

// kindCounter is a tracer that counts the events of each kind.
type kindCounter map[core.EventKind]int

func (k kindCounter) Event(ev core.TraceEvent) { k[ev.Kind]++ }

// TestRecordersSkipProfilerOnlyKinds runs a workload that produces
// every profiler-only kind — a contention past the in-kernel re-test, a
// signal handler, a timed-out descriptor wait and a timed-out condition
// wait — with the recorder and the collector on one Tee. The recorder
// stores none of those kinds; the tracer stream carries each, and the
// collector books each.
func TestRecordersSkipProfilerOnlyKinds(t *testing.T) {
	rec := trace.New()
	col := metrics.New(metrics.Options{})
	seen := kindCounter{}
	s := core.New(core.Config{Tracer: trace.Tee{rec, col, seen}})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "M"})
		c := s.NewCond("C")
		s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) {
			s.Compute(100 * vtime.Microsecond)
		}, 0)
		m.Lock()
		attr := core.DefaultAttr()
		attr.Name = "locker"
		attr.Priority = s.Self().Priority() + 1
		th, _ := s.Create(attr, func(any) any {
			m.Lock() // preempts main and contends
			m.Unlock()
			return nil
		}, nil)
		m.Unlock()
		s.Join(th)
		m.Lock()
		c.TimedWait(m, vtime.Millisecond)
		m.Unlock()
		never := func() (done, more bool) { return false, false }
		if err := s.FDBlockingCall(3, core.VerbRead, vtime.Millisecond, never); err == nil {
			t.Error("descriptor wait did not time out")
		}
		s.Kill(s.Self(), unixkern.SIGUSR1)
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Finalize(s.Now())

	var only []core.EventKind
	for k := core.EventKind(0); k < 255; k++ {
		if k.ProfilerOnly() {
			only = append(only, k)
		}
	}
	if len(only) != 5 {
		t.Fatalf("%d profiler-only kinds, want 5: %v", len(only), only)
	}
	for _, k := range only {
		if seen[k] == 0 {
			t.Errorf("the workload produced no %v event", k)
		}
	}
	for _, ev := range rec.Events {
		if ev.Kind.ProfilerOnly() {
			t.Fatalf("the recorder stored a profiler-only %v event", ev.Kind)
		}
	}
	if len(rec.Events) == 0 {
		t.Fatal("the recorder kept no events")
	}

	if mp := col.MutexByName("M"); mp == nil || mp.Contentions != 1 || mp.Wait.Count != 1 {
		t.Errorf("contention not booked: %+v", mp)
	}
	if cs := col.Conds(); len(cs) != 1 || cs[0].Wait.Count != 1 || cs[0].Wait.Sum < vtime.Millisecond {
		t.Errorf("timed-out condition wait not booked")
	}
	if fs := col.FDs(); len(fs) != 1 || fs[0].Blocks != 1 || fs[0].Block.Sum < vtime.Millisecond {
		t.Errorf("descriptor wait not booked")
	}
	var handler vtime.Duration
	for _, tp := range col.Threads() {
		handler += tp.Buckets[metrics.BucketHandler]
	}
	if handler < 100*vtime.Microsecond {
		t.Errorf("handler time booked %v, want at least 100µs", handler)
	}
}

// TestProfileOpensAtCreateOnlyForLazyThreads pins where a thread's
// profile starts. A lazy thread's starts at its created event, and its
// dormant time until activation is booked as other. A thread readied
// at creation starts at its ready event, which makeReady's charge puts
// after the created event: the collector ignores that created event.
func TestProfileOpensAtCreateOnlyForLazyThreads(t *testing.T) {
	rec := trace.New()
	col := metrics.New(metrics.Options{})
	s := core.New(core.Config{Tracer: trace.Tee{rec, col}})
	err := s.Run(func() {
		body := func(any) any { return nil }
		attr := core.DefaultAttr()
		attr.Name = "eager"
		eager, _ := s.Create(attr, body, nil)
		attr.Name, attr.Lazy = "lazy", true
		lazy, _ := s.Create(attr, body, nil)
		s.Compute(vtime.Millisecond)
		s.Join(eager)
		s.Join(lazy) // activates it
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Finalize(s.Now())
	first := func(name, arg string) vtime.Time {
		for _, ev := range rec.Events {
			if ev.Kind == core.EvState && ev.Thread.Name() == name && ev.Arg == arg {
				return ev.At
			}
		}
		t.Fatalf("no %s event for %s", arg, name)
		return 0
	}
	for _, tp := range col.Threads() {
		if tp.Total() != tp.Lifetime() {
			t.Errorf("%s accounts %v of a %v lifetime", tp.Name, tp.Total(), tp.Lifetime())
		}
		switch tp.Name {
		case "eager":
			if created, ready := first("eager", "created"), first("eager", "ready"); tp.FirstAt != ready || ready <= created {
				t.Errorf("eager profile opens at %v; created at %v, ready at %v", tp.FirstAt, created, ready)
			}
		case "lazy":
			if created := first("lazy", "created"); tp.FirstAt != created {
				t.Errorf("lazy profile opens at %v, created at %v", tp.FirstAt, created)
			}
			if tp.Buckets[metrics.BucketOther] < vtime.Millisecond {
				t.Errorf("lazy thread's dormant time booked %v as other, want at least 1ms", tp.Buckets[metrics.BucketOther])
			}
		}
	}
}
