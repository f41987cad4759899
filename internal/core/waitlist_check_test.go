package core

import (
	"fmt"
	"math"
)

// checkWaitLists is the test-only consistency check of the wait lists
// against the block reasons. It walks every non-empty mutex, cond, join
// and descriptor list reachable from the roster and the descriptor
// shards, and checks each list's back links, tail and depth; that
// levels never increase from head to tail; and that every member is
// blocked for the list's object with the matching back-pointer, queued
// at its priority (joiners: at joinLevel), and that a descriptor's list
// counts the waiters that wait to write it. Then the reverse: every
// thread blocked on a mutex, cond, descriptor or join target is on that
// object's list exactly once. It returns the first violation, or nil.
func checkWaitLists(s *System) error {
	seen := make(map[*Thread]int)
	walked := make(map[*waitList]bool)
	walk := func(l *waitList, what string, member func(*Thread) bool, levelOK func(*Thread) bool) error {
		if l == nil || walked[l] {
			return nil
		}
		walked[l] = true
		var prev *Thread
		n, last := 0, math.MaxInt
		for th := l.head; th != nil; th = th.qNext {
			if n > len(s.all) {
				return fmt.Errorf("%s: list does not end (cycle?)", what)
			}
			switch {
			case th.qPrev != prev:
				return fmt.Errorf("%s: back link of %v broken", what, th)
			case int(th.qLevel) > last:
				return fmt.Errorf("%s: %v at level %d behind level %d", what, th, th.qLevel, last)
			case th.state != StateBlocked:
				return fmt.Errorf("%s: member %v is %v", what, th, th.state)
			case !member(th):
				return fmt.Errorf("%s: member %v is blocked on %v (mutex %p, cond %p, join %v, fd %d/%v)",
					what, th, th.BlockReason(), th.waitingMutex, th.waitingCond, th.joinTarget, th.waitFD, th.fdVerb().Dir())
			case !levelOK(th):
				return fmt.Errorf("%s: %v queued at level %d, priority %d", what, th, th.qLevel, th.prio)
			}
			seen[th]++
			last = int(th.qLevel)
			prev = th
			n++
		}
		if l.tail != prev {
			return fmt.Errorf("%s: tail is not the last member", what)
		}
		if int(l.depth) != n {
			return fmt.Errorf("%s: depth %d, but %d members linked", what, l.depth, n)
		}
		return nil
	}
	atPrio := func(th *Thread) bool { return th.qLevel == th.prio }
	atJoinLevel := func(th *Thread) bool { return th.qLevel == joinLevel }

	for _, th := range s.all {
		if th == nil {
			continue
		}
		if m := th.waitingMutex; m != nil {
			err := walk(&m.waiters, "mutex "+m.name, func(w *Thread) bool {
				return w.BlockReason() == BlockMutex && w.waitingMutex == m
			}, atPrio)
			if err != nil {
				return err
			}
		}
		if c := th.waitingCond; c != nil {
			err := walk(&c.waiters, "cond "+c.name, func(w *Thread) bool {
				return w.BlockReason() == BlockCond && w.waitingCond == c
			}, atPrio)
			if err != nil {
				return err
			}
		}
		for _, tgt := range []*Thread{th, th.joinTarget} {
			if tgt == nil {
				continue
			}
			err := walk(&tgt.joiners, "joiners of "+tgt.String(), func(w *Thread) bool {
				return w.BlockReason() == BlockJoin && w.joinTarget == tgt
			}, atJoinLevel)
			if err != nil {
				return err
			}
		}
	}
	for si := range s.fdShards {
		for ri := range s.fdShards[si].lists {
			l := &s.fdShards[si].lists[ri]
			fd := si | ri<<fdwShardBits
			writers := int32(0)
			err := walk(l, fmt.Sprintf("fd%d", fd), func(w *Thread) bool {
				if w.fdVerb().Dir() == FDWrite {
					writers++
				}
				return w.BlockReason() == BlockFD && int(w.waitFD) == fd
			}, atPrio)
			if err != nil {
				return err
			}
			if writers != l.writers {
				return fmt.Errorf("fd%d: %d waiters wait to write, but the list counts %d", fd, writers, l.writers)
			}
		}
	}

	for _, th := range s.all {
		if th == nil || th.state != StateBlocked {
			continue
		}
		switch th.BlockReason() {
		case BlockMutex, BlockCond, BlockJoin, BlockFD:
			if n := seen[th]; n != 1 {
				return fmt.Errorf("%v is blocked on %v (%s) and on %d wait lists, want 1", th, th.BlockReason(), s.waitLabel(th), n)
			}
		}
	}
	return nil
}
