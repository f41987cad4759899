package unixkern

import (
	"fmt"
	"math/bits"

	"pthreads/internal/hw"
	"pthreads/internal/vtime"
)

// Pid is a simulated process id.
type Pid int

// Handler is a process-level signal handler, installed with Sigvec. It
// runs synchronously at the (virtual) moment of delivery, over whatever
// the process was executing — exactly like a UNIX signal handler.
type Handler func(sig Signal, info *SigInfo)

// Disposition selects what a process does with a signal.
type Disposition int

const (
	// DispDefault performs the signal's default action (terminate the
	// process for most signals, discard for the rest).
	DispDefault Disposition = iota
	// DispIgnore discards the signal.
	DispIgnore
	// DispHandler invokes the installed handler.
	DispHandler
)

type sigaction struct {
	disp    Disposition
	handler Handler
	mask    Sigset // additional signals blocked while the handler runs
}

// Process is a simulated UNIX process: signal state plus an identity. The
// Pthreads library lives entirely inside one process; additional processes
// exist as signal endpoints for the cross-process benchmarks (UNIX signal
// handler latency, process context switch).
type Process struct {
	Pid  Pid
	Name string
	k    *Kernel

	mask    Sigset
	pending [NSIGAll]*SigInfo // UNIX semantics: one pending slot per signal
	pendSet Sigset            // the signals whose pending slot is filled
	actions [NSIGAll]sigaction

	// File descriptor table (see fd.go).
	fdt fdTable

	// OnTerminate is called when a signal's default action terminates
	// the process. The library hooks it to shut the thread system down.
	OnTerminate func(sig Signal)

	// Terminated is set once a default action killed the process.
	Terminated    bool
	TerminateSig  Signal
	deliveredSeen int64
}

// Kernel is the simulated UNIX kernel for one uniprocessor machine.
type Kernel struct {
	Clock *vtime.Clock
	CPU   *hw.CPU

	procs   map[Pid]*Process
	nextPid Pid

	// Running is the process currently on the CPU. Delivering a signal
	// to a different process charges a full process context switch.
	Running *Process

	// Stats the evaluation harness reads. SyscallCounts is indexed by
	// Syscall; Syscall.String names each entry.
	SyscallCounts [NumSyscalls]int64
	LostSignals   int64 // generated while the same signal was already pending
	Delivered     int64
	ProcSwitches  int64

	aioNext     int64
	aioInflight map[AioID]*aioRequest

	// Free lists for the event-delivery hot path. The kernel mints a
	// timerPayload per armed timer, a netEvent per scheduled network
	// transition, and a SigInfo per generated signal; all three are
	// recycled at their consumption points so a steady-state I/O or
	// timer workload allocates nothing. No locks: the simulation is
	// single-goroutine-at-a-time by construction.
	timerPlFree []*timerPayload
	netEvFree   []*netEvent
	sigFree     []*SigInfo
	batchFree   []*batchCompletion
}

// New creates a kernel over the given machine model with a fresh clock.
func New(model *hw.CostModel) *Kernel {
	clock := vtime.NewClock()
	k := &Kernel{
		Clock:       clock,
		CPU:         hw.NewCPU(model, clock),
		procs:       make(map[Pid]*Process),
		aioInflight: make(map[AioID]*aioRequest),
	}
	return k
}

// NewProcess creates a process. The first process created becomes the
// running one.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextPid++
	p := &Process{Pid: k.nextPid, Name: name, k: k}
	for i := range p.actions {
		p.actions[i] = sigaction{disp: DispDefault}
	}
	k.procs[p.Pid] = p
	if k.Running == nil {
		k.Running = p
	}
	return p
}

// CountSyscall charges one kernel round trip and records it under its
// number. Every simulated system call funnels through here — the kernel's
// own entry points and the socket layer's — so the harness can report
// exactly how many kernel calls each library operation makes: the paper's
// "few operating system calls" objective made measurable.
func (k *Kernel) CountSyscall(sc Syscall) {
	k.SyscallCounts[sc]++
	k.CPU.ChargeSyscall()
}

// Getpid is the trivial system call the paper times to measure the cost of
// entering and exiting the UNIX kernel.
func (p *Process) Getpid() Pid {
	p.k.CountSyscall(SysGetpid)
	return p.Pid
}

// Sigsetmask replaces the process signal mask, returning the previous
// mask. Unblocked pending signals are delivered before it returns, in
// ascending signal-number order, matching BSD.
func (p *Process) Sigsetmask(m Sigset) Sigset {
	p.k.CountSyscall(SysSigsetmask)
	old := p.mask
	p.setMaskInternal(m)
	return old
}

// Sigblock adds signals to the mask, returning the previous mask.
func (p *Process) Sigblock(m Sigset) Sigset {
	p.k.CountSyscall(SysSigblock)
	old := p.mask
	p.setMaskInternal(old.Union(m))
	return old
}

// setMaskInternal changes the mask without a syscall charge (used by the
// delivery path itself, which manipulates the mask as part of building and
// tearing down interrupt frames).
func (p *Process) setMaskInternal(m Sigset) {
	p.mask = m & FullSigset() // SIGKILL/SIGSTOP can never be blocked
	p.flushPending()
}

// Mask returns the current process signal mask.
func (p *Process) Mask() Sigset { return p.mask }

// RestoreMask resets the mask without a system call, modelling the mask
// restoration performed by sigreturn when a handler frame is unwound.
func (p *Process) RestoreMask(m Sigset) { p.setMaskInternal(m) }

// Sigvec installs a handler for the signal, with the given additional mask
// blocked during handler execution. Installing a handler for every
// maskable signal is the library's first act ("a universal signal handler
// is installed for all maskable UNIX signals").
func (p *Process) Sigvec(sig Signal, h Handler, mask Sigset) error {
	if !sig.Maskable() {
		return fmt.Errorf("sigvec: cannot catch %v", sig)
	}
	p.k.CountSyscall(SysSigvec)
	p.actions[sig] = sigaction{disp: DispHandler, handler: h, mask: mask}
	return nil
}

// SigvecIgnore sets the signal to be discarded.
func (p *Process) SigvecIgnore(sig Signal) error {
	if !sig.Maskable() {
		return fmt.Errorf("sigvec: cannot ignore %v", sig)
	}
	p.k.CountSyscall(SysSigvec)
	p.actions[sig] = sigaction{disp: DispIgnore}
	return nil
}

// Kill sends a signal to a process, as the kill system call. The caller
// is the running process.
func (k *Kernel) Kill(target Pid, sig Signal) error {
	if !sig.Valid() {
		return fmt.Errorf("kill: invalid signal %v", sig)
	}
	p, ok := k.procs[target]
	if !ok {
		return fmt.Errorf("kill: no process %d", target)
	}
	k.CountSyscall(SysKill)
	var sender Pid
	if k.Running != nil {
		sender = k.Running.Pid
	}
	k.Post(p, &SigInfo{Sig: sig, Cause: CauseKill, Sender: sender})
	return nil
}

// RaiseSync generates a synchronous signal (fault) in the running process,
// e.g. a SIGSEGV from a stack overflow. No syscall cost: faults trap
// directly.
func (k *Kernel) RaiseSync(sig Signal, code int) {
	k.Post(k.Running, &SigInfo{Sig: sig, Code: code, Cause: CauseSync, Sender: k.Running.Pid})
}

// Post generates a signal for a process: the kernel half of delivery.
// If the signal is blocked it is left pending (one slot per signal — a
// second instance is lost, the very hazard the paper's two-sigsetmask
// budget guards against). Otherwise the disposition is applied
// immediately, on the caller's (virtual) CPU.
func (k *Kernel) Post(p *Process, info *SigInfo) {
	if p.Terminated {
		return
	}
	sig := info.Sig
	act := p.actions[sig]
	if act.disp == DispIgnore {
		k.dropSigInfo(info)
		return
	}
	if p.mask.Has(sig) && sig.Maskable() {
		if old := p.pending[sig]; old != nil {
			// UNIX semantics: the second instance is lost. A pooled
			// SigInfo that will never be delivered goes straight back.
			k.LostSignals++
			k.dropSigInfo(old)
		}
		p.pending[sig] = info
		p.pendSet = p.pendSet.Add(sig)
		return
	}
	k.deliver(p, info)
}

// deliver applies the disposition of an unblocked signal.
func (k *Kernel) deliver(p *Process, info *SigInfo) {
	act := p.actions[info.Sig]
	switch act.disp {
	case DispIgnore:
		k.dropSigInfo(info)
		return
	case DispDefault:
		k.defaultAction(p, info.Sig) // may terminate the process
		k.dropSigInfo(info)
		return
	}

	// Handler delivery: the kernel builds an interrupt frame, masks the
	// signal plus the sigvec mask, switches to the target process if it
	// is not running, and invokes the handler.
	k.Delivered++
	p.deliveredSeen++
	k.CPU.ChargeSignalDeliver()

	prevRunning := k.Running
	if prevRunning != p {
		k.ProcSwitches++
		k.CPU.ChargeProcessSwitch()
		k.Running = p
	}

	oldMask := p.mask
	p.mask = p.mask.Union(act.mask).Add(info.Sig) & FullSigset()

	defer func() {
		// sigreturn: restore the interrupted context and mask, then
		// deliver anything the restored mask now admits.
		k.CPU.ChargeSigreturn()
		if prevRunning != p && !prevRunning.Terminated {
			k.ProcSwitches++
			k.CPU.ChargeProcessSwitch()
			k.Running = prevRunning
		}
		p.setMaskInternal(oldMask)
	}()

	act.handler(info.Sig, info)
}

// flushPending delivers pending signals the current mask admits, lowest
// signal number first. A delivery runs a handler that may change the mask
// or pend more signals, so the admitted set is read afresh each time.
func (p *Process) flushPending() {
	for {
		ready := p.pendSet.Minus(p.mask)
		if ready.Empty() {
			return
		}
		sig := Signal(bits.TrailingZeros64(uint64(ready)))
		next := p.pending[sig]
		p.pending[sig] = nil
		p.pendSet = p.pendSet.Del(sig)
		p.k.deliver(p, next)
	}
}

// PendingSet returns the set of signals pending on the process.
func (p *Process) PendingSet() Sigset { return p.pendSet }

// defaultAction performs the signal's default UNIX action.
func (k *Kernel) defaultAction(p *Process, sig Signal) {
	switch sig {
	case SIGCHLD, SIGURG, SIGWINCH, SIGIO, SIGCONT, SIGINFO, SIGTSTP, SIGTTIN, SIGTTOU, SIGSTOP:
		// Discarded (job control is not simulated).
		return
	}
	p.Terminated = true
	p.TerminateSig = sig
	if p.OnTerminate != nil {
		p.OnTerminate(sig)
	}
}

// --- Event free lists ------------------------------------------------------

// newSigInfo mints a kernel-generated SigInfo from the free list.
func (k *Kernel) newSigInfo(sig Signal, cause Cause, datum any, timeSlice bool) *SigInfo {
	if n := len(k.sigFree); n > 0 {
		in := k.sigFree[n-1]
		k.sigFree[n-1] = nil
		k.sigFree = k.sigFree[:n-1]
		*in = SigInfo{Sig: sig, Cause: cause, Datum: datum, TimeSlice: timeSlice, pooled: true}
		return in
	}
	return &SigInfo{Sig: sig, Cause: cause, Datum: datum, TimeSlice: timeSlice, pooled: true}
}

// dropSigInfo reclaims a signal that will never reach a handler
// (ignored, default-actioned, or lost by a pending overwrite): an owned
// completion riding as its datum is released to its pool — nobody else
// will ever demultiplex it — and the SigInfo itself is recycled.
func (k *Kernel) dropSigInfo(info *SigInfo) {
	if c, ok := info.Datum.(*IOCompletion); ok {
		c.Release()
	}
	k.RecycleSigInfo(info)
}

// RecycleSigInfo returns a kernel-minted SigInfo to the free list once
// its consumer is done with it. The library calls it at the terminal
// points of its delivery model — deliveries that can never be re-posted,
// retained in a thread's pending set, or observed by user handlers.
// Recycling a SigInfo the kernel did not mint is a no-op, so callers
// need not distinguish.
func (k *Kernel) RecycleSigInfo(in *SigInfo) {
	if in == nil || !in.pooled {
		return
	}
	*in = SigInfo{}
	k.sigFree = append(k.sigFree, in)
}

// newTimerPayload mints a timer payload from the free list.
func (k *Kernel) newTimerPayload(p *Process, sig Signal, datum any, timeSlice bool) *timerPayload {
	if n := len(k.timerPlFree); n > 0 {
		pl := k.timerPlFree[n-1]
		k.timerPlFree[n-1] = nil
		k.timerPlFree = k.timerPlFree[:n-1]
		*pl = timerPayload{p: p, sig: sig, datum: datum, timeSlice: timeSlice}
		return pl
	}
	return &timerPayload{p: p, sig: sig, datum: datum, timeSlice: timeSlice}
}

func (k *Kernel) recycleTimerPayload(pl *timerPayload) {
	*pl = timerPayload{}
	k.timerPlFree = append(k.timerPlFree, pl)
}

// cancelTimer disarms a clock event and, when its payload is a pooled
// timerPayload, reclaims it immediately — the common fate of a timed
// wait that is satisfied before its timeout fires.
func (k *Kernel) cancelTimer(id vtime.TimerID) bool {
	pl, ok := k.Clock.CancelTake(id)
	if !ok {
		return false
	}
	if tp, isTimer := pl.(*timerPayload); isTimer {
		k.recycleTimerPayload(tp)
	}
	return true
}

// --- Timers ---------------------------------------------------------------

type timerPayload struct {
	p         *Process
	sig       Signal
	datum     any
	timeSlice bool
	interval  vtime.Duration // repeating if > 0
	id        vtime.TimerID
}

// SetTimer arms a one-shot timer that posts sig to the process after d,
// carrying datum (the library passes the arming thread). It models
// setitimer/alarm; the syscall is charged here.
func (k *Kernel) SetTimer(p *Process, sig Signal, d vtime.Duration, datum any, timeSlice bool) vtime.TimerID {
	k.CountSyscall(SysSetitimer)
	pl := k.newTimerPayload(p, sig, datum, timeSlice)
	pl.id = k.Clock.ScheduleAfter(d, pl)
	return pl.id
}

// CancelTimer disarms a timer.
func (k *Kernel) CancelTimer(id vtime.TimerID) bool {
	k.CountSyscall(SysSetitimer)
	return k.cancelTimer(id)
}

// ArmQuantum arms a time-slice expiration d from now, posting SIGALRM with
// the TimeSlice flag. It models re-programming the standing ITIMER_REAL
// the library set up at initialization, so no per-arm system call is
// charged.
func (k *Kernel) ArmQuantum(p *Process, d vtime.Duration, datum any) vtime.TimerID {
	pl := k.newTimerPayload(p, SIGALRM, datum, true)
	pl.id = k.Clock.ScheduleAfter(d, pl)
	return pl.id
}

// DisarmQuantum cancels a quantum armed with ArmQuantum, without a syscall
// charge.
func (k *Kernel) DisarmQuantum(id vtime.TimerID) bool {
	return k.cancelTimer(id)
}

// SetTimerInternal arms a timer riding the library's standing interval
// timer (like ArmQuantum, but for arbitrary library-internal timeouts
// such as condition-variable timed waits): no system call is charged.
func (k *Kernel) SetTimerInternal(p *Process, sig Signal, d vtime.Duration, datum any) vtime.TimerID {
	pl := k.newTimerPayload(p, sig, datum, false)
	pl.id = k.Clock.ScheduleAfter(d, pl)
	return pl.id
}

// DisarmInternal cancels a library-internal timer without a syscall
// charge.
func (k *Kernel) DisarmInternal(id vtime.TimerID) bool {
	return k.cancelTimer(id)
}

// Poll processes every due clock event, generating the corresponding
// signals. The library calls it whenever virtual time has advanced: after
// compute steps, on kernel idle, at blocking points.
//
// Network readiness is batched epoll-style: consecutive net events due at
// the same instant for the same process coalesce their descriptor sets
// into one kernel-pooled IOCompletion and post a single SIGIO, instead of
// one signal per event. A completion is only ever held back when the
// clock's one-event lookahead proves the next due event is a coalescing
// partner; in every other case — a run of one being the overwhelmingly
// common shape, since each interface FIFO-serializes its segments — the
// original completion posts immediately and untouched, so costs, delivery
// order, and the handler's same-tick timer arms/cancels are bit-identical
// to unbatched delivery. The pending announcement is always flushed
// before any non-net signal posts, which keeps cross-type delivery order
// exactly as it was.
func (k *Kernel) Poll() int {
	n := 0
	var (
		pend      *IOCompletion    // readiness awaiting announcement
		pendBatch *batchCompletion // non-nil once pend holds a coalesced batch
		pendP     *Process
		pendAt    vtime.Time
	)
	for {
		ev, ok := k.Clock.PopDue()
		if !ok {
			break
		}
		n++
		switch pl := ev.Payload.(type) {
		case *timerPayload:
			if pend != nil {
				k.Post(pendP, k.newSigInfo(SIGIO, CauseIO, pend, false))
				pend, pendBatch = nil, nil
			}
			// Copy the payload fields out and recycle the struct before
			// posting: the signal handler may arm fresh timers.
			p, sig, datum, timeSlice := pl.p, pl.sig, pl.datum, pl.timeSlice
			k.recycleTimerPayload(pl)
			k.Post(p, k.newSigInfo(sig, CauseTimer, datum, timeSlice))
		case *aioRequest:
			if pend != nil {
				k.Post(pendP, k.newSigInfo(SIGIO, CauseIO, pend, false))
				pend, pendBatch = nil, nil
			}
			pl.done = true
			k.Post(pl.p, k.newSigInfo(SIGIO, CauseIO, pl.datum, false))
		case *netEvent:
			// Deferred network-state transition (see netdev.go): apply it,
			// then announce any descriptors it made ready via SIGIO. The
			// netEvent is consumed here; recycle it before posting, since
			// the delivery may schedule further network events.
			var comp *IOCompletion
			if pl.applier != nil {
				comp = pl.applier.ApplyNet()
			} else {
				comp = pl.apply()
			}
			p := pl.p
			k.recycleNetEvent(pl)
			if comp == nil || len(comp.Ready) == 0 {
				// Nothing to announce: hand an owned completion straight
				// back to its pool.
				comp.Release()
				continue
			}
			// Hold the announcement only when the next due event is
			// provably a coalescing partner — another net event for the
			// same process due at this same instant. Otherwise post at
			// once, so delivery order (and whatever timers the handler
			// arms or cancels among the remaining same-tick events)
			// matches unbatched delivery exactly.
			hold := false
			if nxt, ok := k.Clock.PeekDue(); ok && nxt.At == ev.At {
				if ne, isNet := nxt.Payload.(*netEvent); isNet && ne.p == p {
					hold = true
				}
			}
			if pend != nil && (pendP != p || pendAt != ev.At) {
				// A predicted partner evaporated (its apply announced
				// nothing): flush the stale holding before this event.
				k.Post(pendP, k.newSigInfo(SIGIO, CauseIO, pend, false))
				pend, pendBatch = nil, nil
			}
			if pend != nil {
				// Same instant, same process: coalesce into a batch. The
				// source completions' ready sets are copied and the
				// completions released at once.
				if pendBatch == nil {
					pendBatch = k.newBatch()
					pendBatch.Ready = append(pendBatch.Ready, pend.Ready...)
					pend.Release()
					pend = &pendBatch.IOCompletion
				}
				pendBatch.Ready = append(pendBatch.Ready, comp.Ready...)
				comp.Release()
			} else {
				pend, pendP, pendAt = comp, p, ev.At
			}
			if !hold {
				k.Post(pendP, k.newSigInfo(SIGIO, CauseIO, pend, false))
				pend, pendBatch = nil, nil
			}
		default:
			panic(fmt.Sprintf("unixkern: unknown clock event payload %T", ev.Payload))
		}
	}
	if pend != nil {
		k.Post(pendP, k.newSigInfo(SIGIO, CauseIO, pend, false))
	}
	return n
}

// NextEventAt returns the expiry of the earliest armed event.
func (k *Kernel) NextEventAt() (vtime.Time, bool) { return k.Clock.NextExpiry() }

// --- Asynchronous I/O ------------------------------------------------------

// aioRequest is an in-flight asynchronous I/O request.
type aioRequest struct {
	id    int64
	p     *Process
	datum any
	bytes int
	done  bool
}

// AioID identifies an asynchronous I/O request.
type AioID int64

// Aio issues an asynchronous I/O request that completes after latency,
// posting SIGIO with the given datum ("the kernel associates the request
// with a user-provided datum (the calling thread) such that the user-level
// thread scheduler can be notified of the I/O completion in conjunction
// with this datum"). The bytes count is reported back by AioResult.
func (k *Kernel) Aio(p *Process, latency vtime.Duration, bytes int, datum any) AioID {
	k.CountSyscall(SysAioread)
	k.aioNext++
	req := &aioRequest{id: k.aioNext, p: p, datum: datum, bytes: bytes}
	k.Clock.ScheduleAfter(latency, req)
	k.aioInflight[AioID(req.id)] = req
	return AioID(req.id)
}

// AioResult returns the transferred byte count of a completed request and
// forgets it. It reports ok=false if the request is unknown or still in
// flight.
func (k *Kernel) AioResult(id AioID) (int, bool) {
	req, ok := k.aioInflight[id]
	if !ok || !req.done {
		return 0, false
	}
	delete(k.aioInflight, id)
	return req.bytes, true
}
