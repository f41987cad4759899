package trace

import (
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// record runs a tiny two-thread workload with a recorder attached.
func record(t *testing.T) (*Recorder, *core.System) {
	t.Helper()
	rec := New()
	s := core.New(core.Config{Tracer: rec})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "M"})
		attr := core.DefaultAttr()
		attr.Name = "worker"
		attr.Priority = s.Self().Priority() - 1
		th, _ := s.Create(attr, func(any) any {
			m.Lock()
			s.Compute(2 * vtime.Millisecond)
			m.Unlock()
			return nil
		}, nil)
		s.Tracepoint("mark")
		s.Compute(vtime.Millisecond)
		s.Join(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, s
}

func TestRecorderCollectsEvents(t *testing.T) {
	rec, _ := record(t)
	if len(rec.Events) == 0 {
		t.Fatal("no events")
	}
	names := rec.ThreadNames()
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "main") || !strings.Contains(joined, "worker") {
		t.Fatalf("names = %v", names)
	}
}

func TestRunIntervals(t *testing.T) {
	rec, _ := record(t)
	ivs := rec.RunIntervals("worker")
	if len(ivs) == 0 {
		t.Fatal("no run intervals for worker")
	}
	var total vtime.Duration
	for _, iv := range ivs {
		if iv.To < iv.From {
			t.Fatalf("inverted interval %+v", iv)
		}
		total += iv.To.Sub(iv.From)
	}
	if total < 2*vtime.Millisecond {
		t.Fatalf("worker ran %v, expected >= 2ms", total)
	}
}

func TestHoldIntervals(t *testing.T) {
	rec, _ := record(t)
	holds := rec.HoldIntervals("worker", "M")
	if len(holds) != 1 {
		t.Fatalf("holds = %v", holds)
	}
	if d := holds[0].To.Sub(holds[0].From); d < 2*vtime.Millisecond {
		t.Fatalf("hold span %v", d)
	}
}

// TestMarkerTime checks that a Tracepoint is recorded once, as an
// EvUser event carrying its label, inside the run.
func TestMarkerTime(t *testing.T) {
	rec, _ := record(t)
	var marks []core.TraceEvent
	for _, ev := range rec.Events {
		if ev.Kind == core.EvUser {
			marks = append(marks, ev)
		}
	}
	if len(marks) != 1 || marks[0].Arg != "mark" {
		t.Fatalf("user markers %+v, want one labelled mark", marks)
	}
	if marks[0].At > rec.End() {
		t.Fatal("marker after end")
	}
}

func TestRanDuring(t *testing.T) {
	rec, _ := record(t)
	if !rec.RanDuring("main", Interval{0, rec.End()}) {
		t.Fatal("main never ran?")
	}
	if rec.RanDuring("nobody", Interval{0, rec.End()}) {
		t.Fatal("phantom thread ran")
	}
}

func TestIntervalHelpers(t *testing.T) {
	a := Interval{10, 20}
	if !a.Contains(10) || a.Contains(20) || a.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if !a.Overlaps(Interval{15, 25}) || a.Overlaps(Interval{20, 30}) {
		t.Fatal("Overlaps wrong")
	}
}

func TestTimelineRenders(t *testing.T) {
	rec, _ := record(t)
	out := rec.Timeline("M", 60)
	if !strings.Contains(out, "worker") || !strings.Contains(out, "main") {
		t.Fatalf("timeline missing threads:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("timeline missing mutex-hold marks:\n%s", out)
	}
	if !strings.Contains(out, "=") {
		t.Fatalf("timeline missing run marks:\n%s", out)
	}
	empty := New()
	if !strings.Contains(empty.Timeline("", 10), "empty") {
		t.Fatal("empty trace rendering")
	}
}

func TestDump(t *testing.T) {
	rec, _ := record(t)
	out := rec.Dump()
	if !strings.Contains(out, "mutex") || !strings.Contains(out, "state") {
		t.Fatalf("dump:\n%s", out)
	}
}

func TestMaxPrio(t *testing.T) {
	rec := New()
	s := core.New(core.Config{Tracer: rec})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "c", Protocol: core.ProtocolCeiling, Ceiling: 29})
		m.Lock()
		m.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := rec.MaxPrio("main")
	if !ok || p != 29 {
		t.Fatalf("MaxPrio = %d, %v", p, ok)
	}
	if _, ok := rec.MaxPrio("ghost"); ok {
		t.Fatal("MaxPrio for unknown thread")
	}
}
