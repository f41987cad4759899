package main

import (
	"runtime"
	"slices"
)

// layerSnap is every layer counter the benchmark reads, summed (counts)
// or maxed (high-water marks) over the run's hosts at one instant.
type layerSnap struct {
	kernelEntries, contextSwitches, dispatcherRuns int64
	mutexContentions, condWaits, threadsCreated    int64
	runnerBinds, runnerPeak, contParked            int64
	fdWaits, fdWakeups, fdBlockedNS, fdMaxDepth    int64
	readyMaxDepth, readyGrows, arenaChunks         int64
	timersPending, syscalls, openFDs               int64
	segments, bytesSent, dials, refused            int64
	grants                                         int64
	mallocs, allocBytes, numGC, gcPauseNS          uint64
}

func (r *run) snapshot() layerSnap {
	var s layerSnap
	for _, n := range r.hosts {
		st := n.sys.Stats()
		s.kernelEntries += st.KernelEntries
		s.contextSwitches += st.ContextSwitches
		s.dispatcherRuns += st.DispatcherRuns
		s.mutexContentions += st.MutexContentions
		s.condWaits += st.CondWaits
		s.threadsCreated += st.ThreadsCreated
		s.runnerBinds += st.RunnerBinds
		s.runnerPeak = max(s.runnerPeak, st.RunnerPeak)
		s.contParked += st.ContParked
		s.fdWaits += st.FDWaits
		s.fdWakeups += st.FDWakeups
		s.fdBlockedNS += st.FDBlockedNS
		s.fdMaxDepth = max(s.fdMaxDepth, st.FDMaxWaitDepth)
		s.readyMaxDepth = max(s.readyMaxDepth, st.ReadyMaxDepth)
		s.readyGrows += st.ReadyGrows
		s.arenaChunks += st.ArenaChunks
		s.timersPending += int64(n.sys.Clock().Pending())
		for _, c := range n.sys.Kernel().SyscallCounts {
			s.syscalls += c
		}
		s.openFDs += int64(n.sys.Process().OpenFDCount())
		if n.x != nil {
			ns := n.x.Stack().Stats()
			s.segments += ns.Segments
			s.bytesSent += ns.BytesSent
			s.dials += ns.Dials
			s.refused += ns.Refused
		}
	}
	if r.fab != nil {
		if rep := r.fab.ObsReport(); rep != nil {
			for _, g := range rep.Grants {
				s.grants += g.Grants
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC, s.gcPauseNS = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	return s
}

// layerMetrics derives the per-layer metrics of a traced run: counter
// deltas over the window per op, gauges at the window's end, and the
// span accounting of the sampled blocks.
func layerMetrics(r *run, untracedOpsPerS float64) []metric {
	b, e := r.before, r.after
	ops := float64(r.ops)
	per := func(d int64) float64 { return float64(d) / ops }
	a := r.tr.account()
	sampled := float64(max(a.sampledOps, 1))
	recordNS := float64(len(r.tr.spans)) * r.tr.spanNS
	totalNS := (float64(r.win.Nanoseconds()) - recordNS) / ops
	tracedOpsPerS := ops / r.win.Seconds()

	var selfSum float64
	var spans []metric
	for k := spanKind(0); k < nOpSpans; k++ {
		g := a.kinds[k]
		self := float64(g.self) / sampled
		selfSum += self
		name := spanNames[k]
		spans = append(spans,
			metric{name + ".calls_per_op", float64(g.calls) / sampled, "count"},
			metric{name + ".self_ns_per_op", self, "ns"},
			metric{name + ".p50_ns", median(g.durs), "ns"},
		)
	}
	unaccounted := float64(a.uncovered) / sampled
	recordPerOp := recordNS / sampled
	nsPerGrant := 0.0
	if e.grants > 0 {
		nsPerGrant = float64(r.tr.fabricRun.end-r.tr.fabricRun.start) / float64(e.grants)
	}
	ms := []metric{
		{"vus_per_op", vusPerOp(r), "vus"},
		{"core.kernel_entries_per_op", per(e.kernelEntries - b.kernelEntries), "count"},
		{"core.context_switches_per_op", per(e.contextSwitches - b.contextSwitches), "count"},
		{"core.dispatcher_runs_per_op", per(e.dispatcherRuns - b.dispatcherRuns), "count"},
		{"core.mutex_contentions_per_op", per(e.mutexContentions - b.mutexContentions), "count"},
		{"core.cond_waits_per_op", per(e.condWaits - b.condWaits), "count"},
		{"core.threads_created_per_op", per(e.threadsCreated - b.threadsCreated), "count"},
		{"cont.runner_binds_per_op", per(e.runnerBinds - b.runnerBinds), "count"},
		{"cont.runner_peak", float64(e.runnerPeak), "count"},
		{"cont.parked", float64(e.contParked), "count"},
		{"fdwait.waits_per_op", per(e.fdWaits - b.fdWaits), "count"},
		{"fdwait.wakeups_per_op", per(e.fdWakeups - b.fdWakeups), "count"},
		{"fdwait.blocked_vus_per_op", per(e.fdBlockedNS-b.fdBlockedNS) / 1e3, "vus"},
		{"fdwait.max_depth", float64(e.fdMaxDepth), "count"},
		{"sched.ready_max_depth", float64(e.readyMaxDepth), "count"},
		{"sched.ready_grows", float64(e.readyGrows), "count"},
		{"vtime.pending", float64(e.timersPending), "count"},
		{"unixkern.syscalls_per_op", per(e.syscalls - b.syscalls), "count"},
		{"unixkern.open_fds", float64(e.openFDs), "count"},
		{"net.segments_per_op", per(e.segments - b.segments), "count"},
		{"net.bytes_per_op", per(e.bytesSent - b.bytesSent), "B"},
		{"net.dials_per_op", per(e.dials - b.dials), "count"},
		{"net.refused_per_op", per(e.refused - b.refused), "count"},
		{"arena.chunks_per_kop", per(e.arenaChunks-b.arenaChunks) * 1000, "count"},
		{"fabric.grants_per_op", per(e.grants - b.grants), "count"},
		{"fabric.ns_per_grant", nsPerGrant, "ns"},
		{"runtime.allocs_per_op", float64(e.mallocs-b.mallocs) / ops, "count"},
		{"runtime.bytes_per_op", float64(e.allocBytes-b.allocBytes) / ops, "B"},
		{"runtime.gc_per_kop", float64(e.numGC-b.numGC) / ops * 1000, "count"},
		{"runtime.gc_pause_ns_per_op", float64(e.gcPauseNS-b.gcPauseNS) / ops, "ns"},
		{"runtime.goroutines_peak", float64(r.tr.goroutines), "count"},
	}
	ms = append(ms, spans...)
	return append(ms,
		metric{"harness.unaccounted_ns_per_op", unaccounted, "ns"},
		metric{"trace.record_ns_per_op", recordPerOp, "ns"},
		metric{"trace.total_ns_per_op", totalNS, "ns"},
		metric{"trace.coverage_pct", 100 * (selfSum + unaccounted - recordPerOp) / totalNS, "%"},
		metric{"trace.overhead_pct", 100 * (untracedOpsPerS/tracedOpsPerS - 1), "%"},
		metric{"trace.dropped_spans", float64(r.tr.dropped), "count"},
	)
}

func median(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return float64(v[(len(v)-1)/2])
}
