package core

import "fmt"

// checkKernel is the test-only consistency check of the kernel state
// that checkWaitLists does not cover: runner binding, the ready queue,
// the owned-mutex lists and the live counters. It checks that
//   - every runner is bound to at most one thread, and a thread's runner
//     is bound to that thread;
//   - idle runners are unbound, and no thread holds one;
//   - a parked continuation holds no runner;
//   - a thread is in the ready queue if and only if it is Ready, and at
//     most once;
//   - every mutex on a thread's held list has it as owner, and no
//     mutex is on a held list twice;
//   - liveCnt counts the roster threads that are not Terminated;
//   - Stats.ContParked counts the parked continuations on the roster.
//
// It returns the first violation, or nil.
func checkKernel(s *System) error {
	queued := make(map[*Thread]int)
	for _, th := range s.ready.Items() {
		queued[th]++
	}
	idle := make(map[*runner]bool)
	for _, r := range s.runnerIdle {
		if r.t != nil {
			return fmt.Errorf("idle runner bound to %v", r.t)
		}
		if idle[r] {
			return fmt.Errorf("runner idle twice")
		}
		idle[r] = true
	}
	boundTo := make(map[*runner]*Thread)
	listed := make(map[*Mutex]bool)
	live, parked := 0, int64(0)
	for _, th := range s.all {
		if th == nil {
			continue
		}
		if r := th.runner; r != nil {
			switch {
			case r.t != th:
				return fmt.Errorf("%v holds a runner bound to %v", th, r.t)
			case boundTo[r] != nil:
				return fmt.Errorf("%v and %v hold one runner", boundTo[r], th)
			case idle[r]:
				return fmt.Errorf("%v holds an idle runner", th)
			}
			boundTo[r] = th
		}
		if th.contParked {
			if th.runner != nil {
				return fmt.Errorf("parked continuation %v holds a runner", th)
			}
			parked++
		}
		if n, ready := queued[th], th.state == StateReady; n > 1 || (n == 1) != ready {
			return fmt.Errorf("%v is %v and queued %d times on the ready queue", th, th.state, n)
		}
		delete(queued, th)
		for m := th.owned; m != nil; m = m.ownedNext {
			if m.owner != th {
				return fmt.Errorf("%v lists mutex %s, owned by %v", th, m.name, m.owner)
			}
			if listed[m] {
				// Also what a cycle in the list looks like.
				return fmt.Errorf("mutex %s is listed twice", m.name)
			}
			listed[m] = true
		}
		if th.state != StateTerminated {
			live++
		}
	}
	for th := range queued {
		return fmt.Errorf("ready queue holds %v, which is not on the roster", th)
	}
	if live != s.liveCnt {
		return fmt.Errorf("liveCnt %d, but %d roster threads are not terminated", s.liveCnt, live)
	}
	if parked != s.stats.ContParked {
		return fmt.Errorf("ContParked %d, but %d continuations on the roster are parked", s.stats.ContParked, parked)
	}
	return nil
}
