package core

import "pthreads/internal/vtime"

// SpanSink receives the thread-lifecycle half of the distributed-span
// plane (internal/obs): fork and join edges, so a request's spans
// follow the threads it fans out onto. Like Tracer, Explorer and
// MetricsSink, every call site is a nil check and the hooks charge no
// virtual cost — with the sink detached the system's behavior and
// allocation profile are bit-identical to a build without it, and with
// it attached every virtual clock still reads exactly the same.
type SpanSink interface {
	// ThreadForked fires when parent creates child, at the creation
	// instant on the virtual clock.
	ThreadForked(at vtime.Time, parent, child int32, parentName, childName string)
	// ThreadJoined fires when joiner completes a join on target.
	ThreadJoined(at vtime.Time, joiner, target int32, joinerName, targetName string)
}

// Spans returns the attached span sink (nil unless configured). The
// blocking-I/O jacket reads it to decide whether to open I/O spans.
func (s *System) Spans() SpanSink { return s.spans }

// ReadyDepth returns the number of threads currently in the ready
// queue. Bare accessor (see introspect.go): safe from thread context or
// while the system is parked under the fabric's turn rule.
func (s *System) ReadyDepth() int { return s.ready.Len() }

// FDWaitingNow returns the number of threads currently suspended on a
// per-descriptor wait queue — the fd-wait occupancy gauge the fleet
// rollup samples. Bare accessor, same contract as ReadyDepth.
func (s *System) FDWaitingNow() int { return s.fdBlockedNow }
