package unixkern

import (
	"fmt"
	"math/rand"
	"testing"

	"pthreads/internal/hw"
)

// The process keeps a pending-signal bitmask beside its 33 pending slots,
// so flushPending and PendingSet read one word instead of scanning the
// slots. The oracle below is the scan itself: a test-only copy of the
// process signal state that finds the next admitted signal by walking
// every slot from SIGHUP up. Random sequences of Post, Sigsetmask,
// Sigblock and RestoreMask drive both, and handlers that post signals
// and change the mask themselves make the deliveries nest. Delivery
// order, PendingSet and LostSignals must agree after every op.

// scanProc is the oracle: the process signal state with the slot scan.
type scanProc struct {
	mask    Sigset
	pending [NSIGAll]*SigInfo
	disp    [NSIGAll]Disposition
	actMask [NSIGAll]Sigset
	lost    int64
	handler func(*SigInfo)
}

func (r *scanProc) post(info *SigInfo) {
	sig := info.Sig
	if r.disp[sig] == DispIgnore {
		return
	}
	if r.mask.Has(sig) && sig.Maskable() {
		if r.pending[sig] != nil {
			r.lost++
		}
		r.pending[sig] = info
		return
	}
	r.deliver(info)
}

func (r *scanProc) deliver(info *SigInfo) {
	if r.disp[info.Sig] != DispHandler {
		return // ignored, or a default action that discards
	}
	old := r.mask
	r.mask = r.mask.Union(r.actMask[info.Sig]).Add(info.Sig) & FullSigset()
	r.handler(info)
	r.setMask(old)
}

func (r *scanProc) setMask(m Sigset) {
	r.mask = m & FullSigset()
	for {
		var next *SigInfo
		for sig := Signal(1); sig < NSIGAll; sig++ {
			if in := r.pending[sig]; in != nil && !r.mask.Has(sig) {
				next = in
				r.pending[sig] = nil
				break
			}
		}
		if next == nil {
			return
		}
		r.deliver(next)
	}
}

func (r *scanProc) pendingSet() Sigset {
	var s Sigset
	for sig := Signal(1); sig < NSIGAll; sig++ {
		if r.pending[sig] != nil {
			s = s.Add(sig)
		}
	}
	return s
}

// sigOp is one step of a generated sequence: the op kind, the signal it
// posts or the set it installs. A handler runs the op keyed by the code
// of the delivery it handles.
type sigOp struct {
	kind int // 0 post, 1 Sigsetmask, 2 Sigblock, 3 RestoreMask, 4 nothing
	sig  Signal
	set  Sigset
}

func (o sigOp) String() string {
	return fmt.Sprintf("%s %v %v", [...]string{"post", "sigsetmask", "sigblock", "restoremask", "none"}[o.kind], o.sig, o.set)
}

// sigSide is one of the two implementations under one op stream.
type sigSide struct {
	post    func(sig Signal, code int)
	setmask func(kind int, m Sigset)
	pending func() Sigset
	lost    func() int64
	log     []string // deliveries in order: signal, code, nesting depth
	depth   int
	codes   int // codes handed to signals posted from handlers
}

// pendingOracleSignals are the signals the sequences use: every maskable
// signal. The test leaves SIGCHLD and SIGWINCH at their default action,
// which discards them.
var pendingOracleSignals = func() []Signal {
	var out []Signal
	for sig := SIGHUP; sig < SIGCANCEL; sig++ {
		if sig.Maskable() {
			out = append(out, sig)
		}
	}
	return out
}()

func randomSigset(rng *rand.Rand) Sigset {
	var s Sigset
	for _, sig := range pendingOracleSignals {
		if rng.Intn(3) == 0 {
			s = s.Add(sig)
		}
	}
	if rng.Intn(8) == 0 {
		s |= 1<<SIGKILL | 1<<SIGCANCEL // must be dropped or ignored by the mask
	}
	return s
}

func randomSigOp(rng *rand.Rand, top bool) sigOp {
	sig := pendingOracleSignals[rng.Intn(len(pendingOracleSignals))]
	k := rng.Intn(10)
	switch {
	case k < 5:
		return sigOp{kind: 0, sig: sig}
	case k < 6:
		return sigOp{kind: 1, set: randomSigset(rng)}
	case k < 8:
		return sigOp{kind: 2, set: randomSigset(rng)}
	case k < 9 || top:
		return sigOp{kind: 3, set: randomSigset(rng)}
	}
	return sigOp{kind: 4}
}

func TestPendingMaskMatchesSlotScan(t *testing.T) {
	const ops = 400
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var disp [NSIGAll]Disposition
		var actMask [NSIGAll]Sigset
		for _, sig := range pendingOracleSignals {
			switch rng.Intn(12) {
			case 0:
				disp[sig] = DispIgnore
			default:
				disp[sig] = DispHandler
				if rng.Intn(2) == 0 {
					actMask[sig] = randomSigset(rng)
				}
			}
		}
		disp[SIGCHLD], disp[SIGWINCH] = DispDefault, DispDefault
		// Handler ops are keyed by the code of the delivery they run in;
		// codes 1..ops belong to the top-level posts, later ones to posts
		// made by handlers.
		handlerOps := make([]sigOp, 8*ops)
		for i := range handlerOps {
			handlerOps[i] = randomSigOp(rng, false)
		}

		k := New(hw.SPARCstationIPX())
		p := k.NewProcess("p")
		ref := &scanProc{disp: disp, actMask: actMask}
		real := &sigSide{
			post: func(sig Signal, code int) { k.Post(p, &SigInfo{Sig: sig, Code: code, Cause: CauseKill}) },
			setmask: func(kind int, m Sigset) {
				switch kind {
				case 1:
					p.Sigsetmask(m)
				case 2:
					p.Sigblock(m)
				case 3:
					p.RestoreMask(m)
				}
			},
			pending: p.PendingSet,
			lost:    func() int64 { return k.LostSignals },
			codes:   ops,
		}
		oracle := &sigSide{
			post: func(sig Signal, code int) { ref.post(&SigInfo{Sig: sig, Code: code, Cause: CauseKill}) },
			setmask: func(kind int, m Sigset) {
				switch kind {
				case 1:
					ref.setMask(m)
				case 2:
					ref.setMask(ref.mask | m)
				case 3:
					ref.setMask(m)
				}
			},
			pending: ref.pendingSet,
			lost:    func() int64 { return ref.lost },
			codes:   ops,
		}
		apply := func(s *sigSide, op sigOp, code int) {
			if op.kind == 0 {
				s.post(op.sig, code)
			} else {
				s.setmask(op.kind, op.set)
			}
		}
		handle := func(s *sigSide) func(*SigInfo) {
			return func(info *SigInfo) {
				s.log = append(s.log, fmt.Sprintf("%v#%d@%d", info.Sig, info.Code, s.depth))
				if s.depth >= 3 || info.Code >= len(handlerOps) {
					return
				}
				s.depth++
				s.codes++
				apply(s, handlerOps[info.Code], s.codes)
				s.depth--
			}
		}
		for _, sig := range pendingOracleSignals {
			switch disp[sig] {
			case DispIgnore:
				if err := p.SigvecIgnore(sig); err != nil {
					t.Fatal(err)
				}
			case DispHandler:
				h := handle(real)
				if err := p.Sigvec(sig, func(_ Signal, info *SigInfo) { h(info) }, actMask[sig]); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref.handler = handle(oracle)

		for i := 1; i <= ops; i++ {
			op := randomSigOp(rng, true)
			apply(real, op, i)
			apply(oracle, op, i)
			if len(real.log) != len(oracle.log) {
				t.Fatalf("seed %d op %d (%v): %d deliveries, oracle %d\nkernel %v\noracle %v",
					seed, i, op, len(real.log), len(oracle.log), real.log, oracle.log)
			}
			for j := range real.log {
				if real.log[j] != oracle.log[j] {
					t.Fatalf("seed %d op %d (%v): delivery %d is %s, oracle %s", seed, i, op, j, real.log[j], oracle.log[j])
				}
			}
			if got, want := real.pending(), oracle.pending(); got != want {
				t.Fatalf("seed %d op %d (%v): PendingSet %v, oracle %v", seed, i, op, got, want)
			}
			if got, want := real.lost(), oracle.lost(); got != want {
				t.Fatalf("seed %d op %d (%v): LostSignals %d, oracle %d", seed, i, op, got, want)
			}
			if p.Mask() != ref.mask {
				t.Fatalf("seed %d op %d (%v): mask %v, oracle %v", seed, i, op, p.Mask(), ref.mask)
			}
		}
		if len(real.log) == 0 || real.lost() == 0 {
			t.Fatalf("seed %d: sequence delivered %d signals and lost %d; the oracle compared nothing",
				seed, len(real.log), real.lost())
		}
	}
}

// TestSyscallNames pins the system call names. The syscall table in
// eval and ptreport print them, sorted by name, so a renamed or reordered
// entry would change those reports.
func TestSyscallNames(t *testing.T) {
	want := []string{
		"getpid", "sigsetmask", "sigblock", "sigvec", "kill", "setitimer",
		"aioread", "socket", "listen", "connect", "accept", "recv", "send",
		"close",
	}
	if int(NumSyscalls) != len(want) {
		t.Fatalf("NumSyscalls = %d, want %d", NumSyscalls, len(want))
	}
	for i, name := range want {
		if got := Syscall(i).String(); got != name {
			t.Errorf("Syscall(%d).String() = %q, want %q", i, got, name)
		}
	}
	if got := NumSyscalls.String(); got != "syscall#14" {
		t.Errorf("out-of-range name %q", got)
	}
}
