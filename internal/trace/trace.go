// Package trace records the scheduling and synchronization events of a
// thread system in virtual time and renders them as ASCII timelines —
// the form in which the paper's Figure 5 shows its priority-inversion
// scenarios (a solid line while a thread executes, a box while it holds
// the mutex).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Interval is a half-open span of virtual time.
type Interval struct {
	From, To vtime.Time
}

// Contains reports whether t lies inside the interval.
func (iv Interval) Contains(t vtime.Time) bool { return t >= iv.From && t < iv.To }

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool { return iv.From < o.To && o.From < iv.To }

// Recorder implements core.Tracer, accumulating every event.
type Recorder struct {
	Events []core.TraceEvent
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Event implements core.Tracer. The profiler-only kinds are not stored.
func (r *Recorder) Event(ev core.TraceEvent) {
	if ev.Kind.ProfilerOnly() {
		return
	}
	r.Events = append(r.Events, ev)
}

// threadName renders a stable label for an event's thread.
func threadName(ev core.TraceEvent) string {
	if ev.Thread == nil {
		return ""
	}
	if n := ev.Thread.Name(); n != "" {
		return n
	}
	return fmt.Sprintf("thread#%d", ev.Thread.ID())
}

// ThreadNames lists the threads seen, in order of first appearance.
func (r *Recorder) ThreadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, ev := range r.Events {
		n := threadName(ev)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	return names
}

// End returns the timestamp of the last recorded event.
func (r *Recorder) End() vtime.Time {
	if len(r.Events) == 0 {
		return 0
	}
	return r.Events[len(r.Events)-1].At
}

// RunIntervals returns the spans during which the named thread was
// running.
func (r *Recorder) RunIntervals(name string) []Interval {
	var out []Interval
	var openAt vtime.Time
	open := false
	for _, ev := range r.Events {
		if ev.Kind != core.EvState || threadName(ev) != name {
			continue
		}
		switch ev.Arg {
		case "running":
			if !open {
				open = true
				openAt = ev.At
			}
		default:
			if open {
				out = append(out, Interval{openAt, ev.At})
				open = false
			}
		}
	}
	if open {
		out = append(out, Interval{openAt, r.End()})
	}
	return out
}

// HoldIntervals returns the spans during which the named thread held the
// named mutex.
func (r *Recorder) HoldIntervals(name, mutex string) []Interval {
	var out []Interval
	var openAt vtime.Time
	open := false
	for _, ev := range r.Events {
		if ev.Kind != core.EvMutex || ev.Obj != mutex || threadName(ev) != name {
			continue
		}
		switch ev.Arg {
		case "lock", "grant":
			if !open {
				open = true
				openAt = ev.At
			}
		case "unlock":
			if open {
				out = append(out, Interval{openAt, ev.At})
				open = false
			}
		}
	}
	if open {
		out = append(out, Interval{openAt, r.End()})
	}
	return out
}

// WaitIntervals returns the spans during which the named thread waited
// for the named mutex: each EvMutex "block" (a suspension in lockSlow or
// a reacquisition after a condition signal) paired with the matching
// "grant". A "block" resolved by a plain "lock" instead — the in-kernel
// re-test won the mutex without suspending — is discarded, mirroring the
// metrics collector, which counts that path as uncontended. The
// cross-check test in the metrics package relies on this equivalence:
// the sum of these intervals equals the collector's wait-histogram sum.
func (r *Recorder) WaitIntervals(name, mutex string) []Interval {
	var out []Interval
	var openAt vtime.Time
	open := false
	for _, ev := range r.Events {
		if ev.Kind != core.EvMutex || ev.Obj != mutex || threadName(ev) != name {
			continue
		}
		switch ev.Arg {
		case "block":
			openAt = ev.At
			open = true
		case "grant":
			if open {
				out = append(out, Interval{openAt, ev.At})
				open = false
			}
		case "lock":
			open = false
		}
	}
	return out
}

// RanDuring reports whether the named thread was running at any point
// inside the interval.
func (r *Recorder) RanDuring(name string, iv Interval) bool {
	for _, run := range r.RunIntervals(name) {
		if run.Overlaps(iv) {
			return true
		}
	}
	return false
}

// MaxPrio returns the highest priority the named thread was ever traced
// at (priority-change events only), and whether any were seen.
func (r *Recorder) MaxPrio(name string) (int, bool) {
	max, seen := 0, false
	for _, ev := range r.Events {
		if ev.Kind != core.EvPrio || threadName(ev) != name {
			continue
		}
		var p int
		fmt.Sscanf(ev.Arg, "%d", &p)
		if !seen || p > max {
			max = p
		}
		seen = true
	}
	return max, seen
}

// Timeline renders an ASCII chart in the style of Figure 5: one row per
// thread, time left to right; '=' marks execution, '#' marks execution
// while holding the given mutex (the paper's grey box), spaces mark
// everything else.
func (r *Recorder) Timeline(mutex string, width int) string {
	if width <= 0 {
		width = 72
	}
	end := r.End()
	if end == 0 {
		return "(empty trace)\n"
	}
	names := r.ThreadNames()
	sort.Strings(names)

	labelW := 0
	for _, n := range names {
		if len(n) > labelW {
			labelW = len(n)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%*s  0%s%v\n", labelW, "t", strings.Repeat(" ", width-len(end.String())), end)
	annotated := false
	for _, n := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		paint := func(ivs []Interval, ch byte) {
			for _, iv := range ivs {
				from := int(int64(iv.From) * int64(width) / int64(end))
				to := int(int64(iv.To) * int64(width) / int64(end))
				if to <= from {
					to = from + 1
				}
				for i := from; i < to && i < width; i++ {
					row[i] = ch
				}
			}
		}
		paint(r.RunIntervals(n), '=')
		if mutex != "" {
			var held []Interval
			for _, h := range r.HoldIntervals(n, mutex) {
				for _, run := range r.RunIntervals(n) {
					if run.Overlaps(h) {
						from, to := run.From, run.To
						if h.From > from {
							from = h.From
						}
						if h.To < to {
							to = h.To
						}
						held = append(held, Interval{from, to})
					}
				}
			}
			paint(held, '#')
		}
		// I/O and socket events as single-column annotations over the
		// execution line — where the jacket layer blocked or a connection
		// changed state.
		for _, ev := range r.Events {
			var ch byte
			switch ev.Kind {
			case core.EvIO:
				ch = 'i'
			case core.EvNet:
				ch = 'n'
			default:
				continue
			}
			if threadName(ev) != n {
				continue
			}
			col := int(int64(ev.At) * int64(width) / int64(end))
			if col >= width {
				col = width - 1
			}
			row[col] = ch
			annotated = true
		}
		fmt.Fprintf(&b, "%*s  %s\n", labelW, n, string(row))
	}
	b.WriteString(strings.Repeat(" ", labelW+2))
	b.WriteString("'=' running   '#' running while holding " + mutex)
	if annotated {
		// The legend grows only when an annotation was painted, so traces
		// without I/O (Figure 5) render byte-identically to before.
		b.WriteString("   'i' io   'n' net")
	}
	b.WriteString("\n")
	return b.String()
}

// Dump renders the raw event list, one line per event (debugging aid).
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "%12v %-7s %-10s %-10s %s", ev.At, ev.Kind, threadName(ev), ev.Arg, ev.Detail)
		if ev.Obj != "" {
			fmt.Fprintf(&b, " [%s]", ev.Obj)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
