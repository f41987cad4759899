package core_test

import (
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/lockeng"
	"pthreads/internal/metrics"
	"pthreads/internal/vtime"
)

// The SMP attribution audit (ISSUE 9 S2): lock time charged to an
// SMP-executor thread must land in exactly one bucket. The boundary
// between WaitVUS and HoldVUS is the single post-grant clock reading,
// so per cycle
//
//	wait + hold == Now(after Unlock) - Now(before Lock)
//
// exactly — no gap, no double count — even when the thread migrates
// between per-CPU run queues mid-wait (stealing re-hosts it on a
// different VCPU whose clock Now() then reads).

// smpAttribution runs threads >= vcpus (forcing queue migration via
// stealing) and returns the system, the threads, and each thread's
// externally measured lock-section total: the clock read just before
// every Lock to the clock read just after the matching Unlock.
func smpAttribution(t *testing.T, kind lockeng.Kind, vcpus, threads, iters int, hold, local vtime.Duration) ([]*core.SMPThread, []int64, int64) {
	t.Helper()
	s := core.NewSMP(core.SMPConfig{VCPUs: vcpus})
	m := s.NewSMPMutex(kind, "audit")
	ths := make([]*core.SMPThread, threads)
	spans := make([]int64, threads)
	for i := 0; i < threads; i++ {
		i := i
		ths[i] = s.Go("aud", func(th *core.SMPThread) {
			for n := 0; n < iters; n++ {
				before := th.Now()
				m.Lock(th)
				th.Compute(hold)
				m.Unlock(th)
				spans[i] += int64(th.Now().Sub(before))
				th.Compute(local)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return ths, spans, s.Steals()
}

// TestSMPWaitHoldPartition pins the exactly-one-bucket invariant per
// thread per engine, under enough oversubscription that work stealing
// actually migrates threads between run queues.
func TestSMPWaitHoldPartition(t *testing.T) {
	for _, kind := range []lockeng.Kind{lockeng.KindTTAS, lockeng.KindTicket, lockeng.KindMCS} {
		ths, spans, steals := smpAttribution(t, kind, 4, 7, 40, 2*vtime.Microsecond, vtime.Microsecond)
		if steals == 0 {
			t.Errorf("%v: no steals — the migration half of the audit is vacuous", kind)
		}
		for i, th := range ths {
			if got := th.WaitVUS + th.HoldVUS; got != spans[i] {
				t.Errorf("%v thread %d: wait %d + hold %d = %d != measured lock-section %d",
					kind, i, th.WaitVUS, th.HoldVUS, got, spans[i])
			}
			if th.WaitVUS < 0 || th.HoldVUS < 0 {
				t.Errorf("%v thread %d: negative bucket (wait %d, hold %d) — a migration moved a clock backwards",
					kind, i, th.WaitVUS, th.HoldVUS)
			}
			if th.HoldVUS == 0 {
				t.Errorf("%v thread %d: zero hold over %d acquisitions", kind, i, th.Acquires)
			}
		}
	}
}

// TestSMPAttributionDeterministic reruns the oversubscribed workload
// and demands bit-identical buckets: attribution is part of the
// schedule, not a sampling artifact.
func TestSMPAttributionDeterministic(t *testing.T) {
	a, _, _ := smpAttribution(t, lockeng.KindTicket, 4, 7, 40, 2*vtime.Microsecond, vtime.Microsecond)
	b, _, _ := smpAttribution(t, lockeng.KindTicket, 4, 7, 40, 2*vtime.Microsecond, vtime.Microsecond)
	for i := range a {
		if a[i].WaitVUS != b[i].WaitVUS || a[i].HoldVUS != b[i].HoldVUS || a[i].Acquires != b[i].Acquires {
			t.Fatalf("thread %d attribution differs across identical runs: %d/%d/%d vs %d/%d/%d",
				i, a[i].WaitVUS, a[i].HoldVUS, a[i].Acquires,
				b[i].WaitVUS, b[i].HoldVUS, b[i].Acquires)
		}
	}
}

// TestSMPUniprocessorLockstep runs the same two-thread lock workload on
// the SMP executor (one VCPU — serial semantics) and on the paper's
// uniprocessor kernel under the metrics collector, and walks the two
// attributions in lockstep: same acquisition count, every acquisition
// closed by exactly one hold on both sides, and on both sides the
// wait/hold split partitions the lock section with nothing left over
// (the collector's version of that invariant is its own
// total==lifetime accounting, enforced here via Finalize).
func TestSMPUniprocessorLockstep(t *testing.T) {
	const iters = 25

	// SMP side, one VCPU.
	ths, spans, _ := smpAttribution(t, lockeng.KindTicket, 1, 2, iters, 300*vtime.Microsecond, 50*vtime.Microsecond)
	var smpAcqs, smpBuckets, smpSpans int64
	for i, th := range ths {
		smpAcqs += th.Acquires
		smpBuckets += th.WaitVUS + th.HoldVUS
		smpSpans += spans[i]
	}

	// Uniprocessor side: the same shape — two threads, one mutex,
	// 300µs critical section, 50µs local work — under the collector.
	// The round-robin quantum preempts inside the critical section, so
	// the workload genuinely contends on both executors.
	col := metrics.New(metrics.Options{})
	s := core.New(core.Config{Tracer: col, Quantum: 100 * vtime.Microsecond})
	err := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "audit"})
		var ws []*core.Thread
		for i := 0; i < 2; i++ {
			attr := core.DefaultAttr()
			attr.Name = "aud"
			attr.Policy = core.SchedRR
			th, _ := s.Create(attr, func(any) any {
				for n := 0; n < iters; n++ {
					m.Lock()
					s.Compute(300 * vtime.Microsecond)
					m.Unlock()
					s.Compute(50 * vtime.Microsecond)
				}
				return nil
			}, nil)
			ws = append(ws, th)
		}
		for _, th := range ws {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Finalize(s.Now())

	mp := col.MutexByName("audit")
	if mp == nil {
		t.Fatal("uniprocessor run produced no profile for mutex audit")
	}

	// Lockstep: acquisition streams line up one to one.
	if smpAcqs != 2*iters || mp.Acquisitions != 2*iters {
		t.Fatalf("acquisition counts diverge: smp %d, uniprocessor %d, want %d both",
			smpAcqs, mp.Acquisitions, 2*iters)
	}
	// Every acquisition closed by exactly one hold on both sides: the
	// SMP side charges a hold per Unlock by construction (the partition
	// test above), the collector must have matched counts too.
	if mp.Hold.Count != mp.Acquisitions {
		t.Fatalf("uniprocessor holds %d != acquisitions %d", mp.Hold.Count, mp.Acquisitions)
	}
	// Exactly-one-bucket on the SMP side, summed across threads.
	if smpBuckets != smpSpans {
		t.Fatalf("smp wait+hold %d != measured lock sections %d", smpBuckets, smpSpans)
	}
	// The collector's equivalent conservation law: every thread's
	// bucket sum equals its lifetime, so lock time cannot be dropped or
	// double-counted there either.
	for _, tp := range col.Threads() {
		if tp.Total() != tp.Lifetime() {
			t.Fatalf("uniprocessor thread %s accounts %v of a %v lifetime", tp.Name, tp.Total(), tp.Lifetime())
		}
	}
	// Both sides saw real waiting (the workload contends) and real
	// holding; a zero here means an attribution path silently died.
	var smpWait, smpHold int64
	for _, th := range ths {
		smpWait += th.WaitVUS
		smpHold += th.HoldVUS
	}
	if smpWait == 0 || smpHold == 0 || mp.Wait.Count == 0 || mp.Hold.Sum == 0 {
		t.Fatalf("vacuous lockstep: smp wait %d hold %d, uniprocessor waits %d hold %v",
			smpWait, smpHold, mp.Wait.Count, mp.Hold.Sum)
	}
}
