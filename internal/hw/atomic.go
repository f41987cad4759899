package hw

// This file models the mutual-exclusion primitives the paper compares in
// its "Synchronization" section (Figure 4 and surrounding discussion):
//
//   - ldstub, the SPARC test-and-set instruction;
//   - a restartable atomic sequence (RAS) wrapping the ldstub so that the
//     mutex owner is recorded atomically with the lock — 7 instructions in
//     the paper's implementation;
//   - the hypothetical compare-and-swap instruction the paper argues
//     should be in every instruction set, which records the owner in one
//     atomic step at the cost of two extra cycles.
//
// On the simulated uniprocessor a sequence is atomic as long as no signal
// handler runs in its middle; the library arranges exactly that, and a
// RAS additionally registers its extent so that the (simulated) signal
// machinery can restart it — here represented by the Restarts counter,
// which the test suite uses to exercise the restart path explicitly.

// Word is a simulated memory word targeted by atomic operations.
type Word struct {
	val int64
}

// Load returns the word's value (an ordinary load; cost charged by the
// caller as part of its instruction count).
func (w *Word) Load() int64 { return w.val }

// Store sets the word's value.
func (w *Word) Store(v int64) { w.val = v }

// LockPrimitive selects which lock/owner-recording code path a mutex uses.
// The paper's implementation is TASWithRAS; the alternatives exist for the
// ablation benchmark of the Figure 4 discussion.
type LockPrimitive int

const (
	// TASOnly is a bare ldstub with no owner recording — the "simple
	// mutex lock (no protocol) could have been implemented with a
	// test-and-set instruction" case. It cannot support priority
	// inheritance because ownership is not recorded atomically.
	TASOnly LockPrimitive = iota

	// TASWithRAS is the paper's choice: ldstub followed by the owner
	// store, the whole 7-instruction sequence made atomic by restartable
	// atomic sequences (Figure 4).
	TASWithRAS

	// CompareAndSwap is the hypothetical instruction: one atomic
	// compare-and-swap that tests the word and records the owner, two
	// cycles slower than ldstub but with no signal-handler overhead.
	CompareAndSwap
)

// String names the primitive for reports.
func (p LockPrimitive) String() string {
	switch p {
	case TASOnly:
		return "ldstub"
	case TASWithRAS:
		return "ldstub+RAS"
	case CompareAndSwap:
		return "compare-and-swap"
	}
	return "unknown-primitive"
}

// Atomics simulates the atomic instruction set of one CPU, charging costs
// and tracking restartable-sequence state.
type Atomics struct {
	cpu *CPU

	// inRAS is true while a restartable atomic sequence is "executing";
	// if the simulated signal machinery observes an interruption during
	// this window it restarts the sequence.
	inRAS bool

	// Restarts counts RAS restarts forced by interruptions.
	Restarts int64

	// interrupted is set by InterruptRAS while a sequence is open.
	interrupted bool
}

// NewAtomics returns the atomic-instruction model for a CPU.
func NewAtomics(cpu *CPU) *Atomics { return &Atomics{cpu: cpu} }

// TAS performs a ldstub on the word: it atomically reads the old value and
// stores all ones. It reports true when the word was previously zero, i.e.
// the lock was acquired.
func (a *Atomics) TAS(w *Word) bool {
	a.cpu.ChargeTAS()
	old := w.val
	w.val = -1
	return old == 0
}

// CAS atomically stores owner into the word if the word was zero, setting
// the condition codes as the paper's proposed instruction would. It
// reports whether the store happened.
func (a *Atomics) CAS(w *Word, owner int64) bool {
	a.cpu.ChargeCAS()
	if w.val != 0 {
		return false
	}
	w.val = owner
	return true
}

// LockRAS executes the paper's Figure 4 sequence: a ldstub on the lock
// word followed by a store of the owner, inside a restartable atomic
// sequence of 7 instructions. It reports whether the lock was acquired;
// on success the owner word holds owner.
func (a *Atomics) LockRAS(lock *Word, ownerWord *Word, owner int64) bool {
	for {
		a.inRAS = true
		a.interrupted = false
		// ldstub [%o0+mutex_lock],%o1
		got := a.TAS(lock)
		// tst / bne / sethi / or / ld / st — six further instructions.
		a.cpu.ChargeInstr(6)
		if a.interrupted {
			// A signal handler fired mid-sequence: it rolled the
			// sequence back (the lock word store is replayed), so
			// restart from the top.
			a.inRAS = false
			a.Restarts++
			if got {
				lock.Store(0)
			}
			continue
		}
		a.inRAS = false
		if !got {
			return false
		}
		ownerWord.Store(owner)
		return true
	}
}

// InterruptRAS is called by the simulated signal machinery when a signal
// lands on a thread; if the thread was inside a restartable atomic
// sequence the sequence is marked for restart, which is how the real
// implementation's augmented signal handler guaranteed "there be an owner
// associated with every locked mutex at any given time".
func (a *Atomics) InterruptRAS() bool {
	if a.inRAS {
		a.interrupted = true
		return true
	}
	return false
}
