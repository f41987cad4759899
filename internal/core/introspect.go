package core

import (
	"fmt"
	"slices"
	"strings"

	"pthreads/internal/hw"
	"pthreads/internal/unixkern"
)

// Debugging support, as the paper's future-work section sketches it:
// "Information could be extracted from the thread control block and made
// available to the user." ThreadInfo is that extraction; DumpThreads is
// the debugger view of the whole system.
//
// Bare-accessor audit (kernel consistency). The introspection surface
// reads shared state without entering the kernel and without charging
// virtual cost: System.Sigmask, System.Stats, System.Errno, System.Now,
// Cond.Waiters, Mutex.Owner/Name/Protocol/Ceiling, Thread.State/
// Priority/BasePriority/Name/Detached/FDWait, Inspect, DumpThreads. All
// are safe under the monolithic-monitor discipline for the same two
// reasons:
// (1) baton passing — exactly one runner goroutine executes at any
// instant, and it only reaches user code with the kernel flag clear, so
// no kernel section (the only writer of this state) is ever in progress
// while an accessor runs from thread context; (2) per-thread fields
// (sigMask, errno) are written exclusively by their own thread. The
// contract, shared by every accessor: call from thread context, or after
// Run has returned. Calling from a foreign host goroutine while the
// system runs is outside the model (it would be a host-level data race,
// as -race would report) — the same restriction the paper's in-process
// debugger interface carries implicitly. The kernel-consistency tests in
// introspect_test.go exercise the contract.

// ThreadInfo is a point-in-time snapshot of one thread control block.
type ThreadInfo struct {
	ID           ThreadID
	Name         string
	State        State
	BlockReason  BlockReason
	WaitingFor   string
	Priority     int
	BasePriority int
	Policy       Policy
	Detached     bool
	CancelState  CancelState
	CancelReq    bool
	SigMask      unixkern.Sigset
	SigPending   unixkern.Sigset
	Errno        Errno
	HeldMutexes  []string
	FakeCalls    int
	CleanupDepth int
	StackSize    int64
	StackUsedMax int64
	Dispatches   int64
	SignalsTaken int64
}

// Inspect snapshots a thread's control block.
func (s *System) Inspect(t *Thread) (ThreadInfo, error) {
	if t == nil || t.sys != s {
		return ThreadInfo{}, EINVAL.Or()
	}
	info := ThreadInfo{
		ID:           t.id,
		Name:         t.name,
		State:        t.state,
		BlockReason:  t.BlockReason(),
		WaitingFor:   s.waitLabel(t),
		Priority:     int(t.prio),
		BasePriority: int(t.basePrio),
		Policy:       t.policy,
		Detached:     t.detached,
		CancelState:  t.cancelState,
		CancelReq:    t.cancelPending || t.pendingSig(unixkern.SIGCANCEL) != nil,
		SigMask:      t.sigMask,
		SigPending:   s.ThreadPendingSet(t),
		Errno:        t.errno,
		FakeCalls:    t.fakeCalls(),
		CleanupDepth: t.cleanupDepth(),
		Dispatches:   t.Dispatches,
		SignalsTaken: t.SigsTaken,
	}
	// The held list runs most recent first; report acquisition order.
	for m := t.owned; m != nil; m = m.ownedNext {
		info.HeldMutexes = append(info.HeldMutexes, m.name)
	}
	slices.Reverse(info.HeldMutexes)
	if t.stack != nil {
		info.StackSize = t.stack.Size
		info.StackUsedMax = t.stack.HighWater
	} else {
		// No frame was ever pushed past the base frame.
		info.StackSize = t.stackSize
		info.StackUsedMax = hw.BaseFrameSize
	}
	return info, nil
}

// String renders the snapshot in one debugger-style line.
func (ti ThreadInfo) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-3d %-12s %-10s prio=%d", ti.ID, ti.Name, ti.State, ti.Priority)
	if ti.Priority != ti.BasePriority {
		fmt.Fprintf(&b, "(base %d)", ti.BasePriority)
	}
	fmt.Fprintf(&b, " %v", ti.Policy)
	if ti.State == StateBlocked {
		fmt.Fprintf(&b, " blocked=%v[%s]", ti.BlockReason, ti.WaitingFor)
	}
	if ti.Detached {
		b.WriteString(" detached")
	}
	if ti.CancelReq {
		b.WriteString(" cancel-pending")
	}
	if len(ti.HeldMutexes) > 0 {
		fmt.Fprintf(&b, " holds=%s", strings.Join(ti.HeldMutexes, ","))
	}
	if !ti.SigPending.Empty() {
		fmt.Fprintf(&b, " sigpend=%v", ti.SigPending)
	}
	if ti.FakeCalls > 0 {
		fmt.Fprintf(&b, " fakecalls=%d", ti.FakeCalls)
	}
	fmt.Fprintf(&b, " stack=%d/%d", ti.StackUsedMax, ti.StackSize)
	return b.String()
}

// DumpThreads renders every live thread, the library flags, and the
// headline counters — the "separate debugging window" of the paper's
// sketch, as text.
func (s *System) DumpThreads() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pthreads system at %v: %d live threads, kernel=%v dispatcher=%v\n",
		s.clock.Now(), s.liveCnt, s.kernelFlag, s.dispatcherFlag)
	for _, t := range s.all {
		if t == nil {
			continue
		}
		info, err := s.Inspect(t)
		if err != nil {
			continue
		}
		marker := "  "
		if t == s.current {
			marker = "* "
		}
		b.WriteString(marker)
		b.WriteString(info.String())
		b.WriteByte('\n')
	}
	st := s.stats
	fmt.Fprintf(&b, "  switches=%d preemptions=%d kernel-entries=%d signals=%d/%d fakecalls=%d\n",
		st.ContextSwitches, st.Preemptions, st.KernelEntries,
		st.SignalsInternal, st.SignalsExternal, st.FakeCalls)
	return b.String()
}

// ReadyDepth returns the number of threads currently in the ready
// queue. Bare accessor (see the audit above): safe from thread context or
// while the system is parked under the fabric's turn rule.
func (s *System) ReadyDepth() int { return s.ready.Len() }

// FDWaitingNow returns the number of threads currently suspended on a
// per-descriptor wait queue — the fd-wait occupancy gauge the fleet
// rollup samples. Bare accessor, same contract as ReadyDepth.
func (s *System) FDWaitingNow() int { return s.fdBlockedNow }
