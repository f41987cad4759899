package core

import (
	"testing"

	"pthreads/internal/sched"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Regression coverage for setPriority's interaction with the sharded
// per-(fd, dir) wait queues: a re-prioritized thread parked on a
// descriptor wait must move within its own queue (never surface in a
// different shard's dense table), completions must honor the *updated*
// priority order, chain wakes must designate each waiter exactly once,
// and timeouts must still find the requeued entry.

// fdParkTokens parks n threads on fd with one-token attempts; the
// returned order slice records completion order by worker index.
type fdTokenBox struct {
	tokens int
	chain  bool // report residual readiness so wakes chain
	order  []int
}

func (s *System) fdParkWorker(t *testing.T, fd unixkern.FD, idx, prio int, box *fdTokenBox) *Thread {
	t.Helper()
	attr := DefaultAttr()
	attr.Priority = prio
	th, err := s.Create(attr, func(any) any {
		attempt := func() (bool, bool) {
			if box.tokens > 0 {
				box.tokens--
				box.order = append(box.order, idx)
				return true, box.chain && box.tokens > 0
			}
			return false, false
		}
		if err := s.FDBlockingCall(fd, VerbRead, 0, attempt); err != nil {
			t.Errorf("worker %d: %v", idx, err)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("create worker %d: %v", idx, err)
	}
	return th
}

// wakeOne injects a single wake-one readiness for fd through the pooled
// kernel path and sleeps past its delivery.
func wakeOne(s *System, src *scaleSource, fd unixkern.FD, all bool) {
	src.ready = src.ready[:0]
	src.ready = append(src.ready, unixkern.IOReady{FD: fd, R: true, All: all})
	s.Kernel().NetAfter(s.Process(), vtime.Microsecond, src)
	s.Sleep(2 * vtime.Microsecond)
}

// TestFDWaitRequeueFollowsNewPriority parks three waiters on one
// descriptor, inverts their priorities while they are parked, and checks
// wake-one completions designate them in the *new* order.
func TestFDWaitRequeueFollowsNewPriority(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		fd := s.Process().AllocFD(nil)
		box := &fdTokenBox{}
		lo := s.fdParkWorker(t, fd, 0, 18, box)
		mid := s.fdParkWorker(t, fd, 1, 20, box)
		hi := s.fdParkWorker(t, fd, 2, 22, box)
		for s.Stats().FDWaits < 3 {
			s.Yield()
		}
		if d := s.FDWaitDepth(fd, FDRead); d != 3 {
			t.Errorf("wait depth = %d, want 3", d)
		}

		// Invert the order while all three sit on the shard queue: the
		// former lowest becomes top, the former highest becomes bottom.
		if err := s.SetSchedParam(lo, SchedFIFO, 26); err != nil {
			t.Errorf("SetSchedParam(lo): %v", err)
		}
		if err := s.SetSchedParam(hi, SchedFIFO, 17); err != nil {
			t.Errorf("SetSchedParam(hi): %v", err)
		}
		// Requeue must not duplicate or drop entries.
		if d := s.FDWaitDepth(fd, FDRead); d != 3 {
			t.Errorf("wait depth after requeue = %d, want 3", d)
		}

		src := &scaleSource{ready: make([]unixkern.IOReady, 0, 1)}
		for i := 0; i < 3; i++ {
			box.tokens++
			wakeOne(s, src, fd, false)
		}
		for _, th := range []*Thread{lo, mid, hi} {
			s.Join(th)
		}
		want := []int{0, 1, 2} // lo(26) first, mid(20), then hi(17)
		if len(box.order) != 3 || box.order[0] != want[0] || box.order[1] != want[1] || box.order[2] != want[2] {
			t.Errorf("wake order %v, want %v", box.order, want)
		}
		if d := s.FDWaitDepth(fd, FDRead); d != 0 {
			t.Errorf("wait depth after drain = %d, want 0", d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitRequeueCrossShardCollisions parks waiters on descriptors
// that collide into the same shard (fd, fd+64, fd+128 share the low six
// bits) plus a neighbor in the adjacent shard, re-prioritizes every one
// of them mid-park, and checks each is woken exactly once by its own
// completion with no stale entry left in any shard's dense table.
func TestFDWaitRequeueCrossShardCollisions(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		p := s.Process()
		// Allocate a dense fd range and pick shard-colliding values.
		fds := make([]unixkern.FD, 0, 200)
		for i := 0; i < 200; i++ {
			fds = append(fds, p.AllocFD(nil))
		}
		base := fds[0]
		pick := func(off int) unixkern.FD {
			want := unixkern.FD(int(base) + off)
			for _, fd := range fds {
				if fd == want {
					return fd
				}
			}
			t.Fatalf("fd %d not allocated", want)
			return 0
		}
		colliding := []unixkern.FD{
			pick(0),
			pick(fdwShardCount),     // same shard, dense row 1
			pick(2 * fdwShardCount), // same shard, dense row 2
			pick(1),                 // adjacent shard
		}
		if int(colliding[0])&fdwShardMask != int(colliding[1])&fdwShardMask ||
			int(colliding[0])&fdwShardMask != int(colliding[2])&fdwShardMask {
			t.Fatalf("test fds %v do not collide into one shard", colliding)
		}

		boxes := make([]*fdTokenBox, len(colliding))
		ths := make([]*Thread, len(colliding))
		for i, fd := range colliding {
			boxes[i] = &fdTokenBox{}
			ths[i] = s.fdParkWorker(t, fd, i, 18+i, boxes[i])
		}
		for s.Stats().FDWaits < int64(len(colliding)) {
			s.Yield()
		}

		// Shuffle priorities up and down while every waiter is parked.
		newPrio := []int{25, 17, 28, 19}
		for i, th := range ths {
			if err := s.SetSchedParam(th, SchedFIFO, newPrio[i]); err != nil {
				t.Errorf("SetSchedParam(%d): %v", i, err)
			}
		}
		for _, fd := range colliding {
			if d := s.FDWaitDepth(fd, FDRead); d != 1 {
				t.Errorf("fd %d: wait depth after requeue = %d, want 1", fd, d)
			}
		}

		// One completion per descriptor: each waiter must wake exactly
		// once, from its own shard row.
		wakes0 := s.Stats().FDWakeups
		src := &scaleSource{ready: make([]unixkern.IOReady, 0, 1)}
		for i, fd := range colliding {
			boxes[i].tokens++
			wakeOne(s, src, fd, false)
		}
		for _, th := range ths {
			s.Join(th)
		}
		if got := s.Stats().FDWakeups - wakes0; got != int64(len(colliding)) {
			t.Errorf("fd wakeups = %d, want %d (a waiter was double-woken or missed)", got, len(colliding))
		}
		for i, box := range boxes {
			if len(box.order) != 1 || box.order[0] != i {
				t.Errorf("fd %d: completion order %v, want [%d]", colliding[i], box.order, i)
			}
		}
		// No stale dense-table entries anywhere: every list was drained,
		// so every shard slot must be empty again.
		for si := range s.fdShards {
			for ri, row := range s.fdShards[si].slots {
				for dir, l := range row {
					if l != (waitList{}) {
						t.Errorf("shard %d row %d dir %d: stale list (depth %d) after drain", si, ri, dir, l.depth)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitRequeueChainWakeOnce re-prioritizes parked waiters and then
// delivers a single completion whose attempt reports residual readiness:
// the chain must designate each waiter exactly once, in updated priority
// order, and never re-designate an already-woken thread.
func TestFDWaitRequeueChainWakeOnce(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		fd := s.Process().AllocFD(nil)
		box := &fdTokenBox{chain: true}
		a := s.fdParkWorker(t, fd, 0, 18, box)
		b := s.fdParkWorker(t, fd, 1, 20, box)
		c := s.fdParkWorker(t, fd, 2, 22, box)
		for s.Stats().FDWaits < 3 {
			s.Yield()
		}
		// Swap the extremes mid-park.
		if err := s.SetSchedParam(a, SchedFIFO, 23); err != nil {
			t.Errorf("SetSchedParam(a): %v", err)
		}
		if err := s.SetSchedParam(c, SchedFIFO, 18); err != nil {
			t.Errorf("SetSchedParam(c): %v", err)
		}

		wakes0 := s.Stats().FDWakeups
		box.tokens = 3
		src := &scaleSource{ready: make([]unixkern.IOReady, 0, 1)}
		wakeOne(s, src, fd, false) // one wake-one; the rest chain
		for _, th := range []*Thread{a, b, c} {
			s.Join(th)
		}
		if got := s.Stats().FDWakeups - wakes0; got != 3 {
			t.Errorf("chain produced %d wakeups, want exactly 3", got)
		}
		want := []int{0, 1, 2} // a(23), b(20), c(18) after the swap
		if len(box.order) != 3 || box.order[0] != want[0] || box.order[1] != want[1] || box.order[2] != want[2] {
			t.Errorf("chain order %v, want %v", box.order, want)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFDWaitRequeueThenTimeout changes a timed waiter's priority while
// it is parked and then lets the deadline fire: the timeout path must
// find and remove the requeued entry (at its new priority) without
// disturbing a second waiter on the same descriptor.
func TestFDWaitRequeueThenTimeout(t *testing.T) {
	s := New(Config{})
	err := s.Run(func() {
		fd := s.Process().AllocFD(nil)
		var timedErr error
		attr := DefaultAttr()
		attr.Priority = 18
		timed, err := s.Create(attr, func(any) any {
			timedErr = s.FDBlockingCall(fd, VerbRead, 10*vtime.Millisecond,
				func() (bool, bool) { return false, false })
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("create timed: %v", err)
		}
		box := &fdTokenBox{}
		other := s.fdParkWorker(t, fd, 1, 20, box)
		for s.Stats().FDWaits < 2 {
			s.Yield()
		}
		if err := s.SetSchedParam(timed, SchedFIFO, sched.MaxPrio); err != nil {
			t.Errorf("SetSchedParam(timed): %v", err)
		}
		if d := s.FDWaitDepth(fd, FDRead); d != 2 {
			t.Errorf("wait depth after requeue = %d, want 2", d)
		}

		s.Sleep(20 * vtime.Millisecond) // past the deadline
		if _, err := s.Join(timed); err != nil {
			t.Errorf("join timed: %v", err)
		}
		if e, _ := AsErrno(timedErr); e != ETIMEDOUT {
			t.Errorf("timed wait returned %v, want ETIMEDOUT", timedErr)
		}
		// The surviving waiter is intact and wakeable.
		if d := s.FDWaitDepth(fd, FDRead); d != 1 {
			t.Errorf("wait depth after timeout = %d, want 1", d)
		}
		box.tokens++
		src := &scaleSource{ready: make([]unixkern.IOReady, 0, 1)}
		wakeOne(s, src, fd, false)
		s.Join(other)
		if len(box.order) != 1 || box.order[0] != 1 {
			t.Errorf("surviving waiter order %v, want [1]", box.order)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
