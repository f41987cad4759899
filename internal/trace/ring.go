package trace

import "pthreads/internal/core"

// RingRecorder implements core.Tracer with a fixed-capacity circular
// buffer: once full it overwrites the oldest events instead of growing.
// This is the always-on "flight recorder" shape — attach it for a long
// run without the unbounded memory of Recorder, then inspect the last N
// events after the fact. Event never allocates after construction.
type RingRecorder struct {
	buf     []core.TraceEvent
	head    int   // index of the oldest retained event
	n       int   // number of retained events (<= cap)
	dropped int64 // events overwritten because the buffer was full
}

// NewRing returns a RingRecorder retaining at most capacity events
// (minimum 1).
func NewRing(capacity int) *RingRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &RingRecorder{buf: make([]core.TraceEvent, capacity)}
}

// Event implements core.Tracer. When the buffer is full the oldest event
// is overwritten and the drop counter advances. The profiler-only kinds
// are not stored.
func (r *RingRecorder) Event(ev core.TraceEvent) {
	if ev.Kind.ProfilerOnly() {
		return
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of events currently retained.
func (r *RingRecorder) Len() int { return r.n }

// Cap returns the fixed capacity.
func (r *RingRecorder) Cap() int { return len(r.buf) }

// Dropped returns how many events have been overwritten so far.
func (r *RingRecorder) Dropped() int64 { return r.dropped }

// Events returns the retained events oldest-first. The slice is freshly
// allocated; the ring itself is left untouched.
func (r *RingRecorder) Events() []core.TraceEvent {
	out := make([]core.TraceEvent, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Reset empties the ring and clears the drop counter, retaining the
// buffer for reuse.
func (r *RingRecorder) Reset() {
	clear(r.buf)
	r.head, r.n, r.dropped = 0, 0, 0
}
