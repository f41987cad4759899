package main

import (
	"time"

	"pthreads"
)

const (
	ringSize = 64
	// One hop in sleepOneIn also sleeps 1..sleepMaxUS µs with the token.
	sleepOneIn = 8
	sleepMaxUS = 8
)

// ring is the handoff workload's shared state: a token passed around
// ringSize continuation threads under one mutex, one condition variable
// per member.
type ring struct {
	r     *run
	n     *node
	m     *pthreads.Mutex
	cv    [ringSize]*pthreads.Cond
	turn  int
	last  int // member that made the previous hop
	stop  bool
	visit [ringSize]int
	lastV pthreads.Time
}

// member is one ring thread. Its steps are bound once, so a hop
// allocates nothing.
type member struct {
	g           *ring
	i           int
	slot        int32
	held, slept pthreads.ContFunc
}

// runHandoff: one op is one token hop. Each member takes the mutex once
// and from then on releases it only inside its condition wait, the
// canonical "while not my turn: wait" loop: the holder passes the token
// by signalling its successor's condition variable and waiting on its
// own, so the successor's wakeup reacquires the mutex the wait released.
// A seeded one hop in sleepOneIn also sleeps while holding the token,
// which idles the ring onto the timer wheel.
func runHandoff(r *run) error {
	r.t0 = time.Now()
	sys := pthreads.New(pthreads.Config{})
	return sys.Run(func() {
		g := &ring{r: r, n: r.addHost(sys, nil), last: ringSize - 1}
		g.m = sys.MustMutex(pthreads.MutexAttr{Name: "ring"})
		for i := range g.cv {
			g.cv[i] = sys.NewCond("hop")
		}
		attr := pthreads.DefaultAttr()
		attr.Name = "member"
		ths := make([]*pthreads.Thread, ringSize)
		for i := range ths {
			mb := &member{g: g, i: i}
			mb.held, mb.slept = mb.onHeld, mb.onSlept
			t, err := sys.CreateCont(attr, mb.lock, nil)
			if err != nil {
				panic(err)
			}
			ths[i] = t
		}
		for _, t := range ths {
			if _, err := sys.Join(t); err != nil {
				r.violate("handoff: join: %v", err)
			}
		}
		hops := 0
		for i, v := range g.visit {
			hops += v
			if lo := r.issued / ringSize; v < lo || v > lo+1 {
				r.violate("handoff: member %d made %d hops of %d", i, v, r.issued)
			}
		}
		if hops != r.issued {
			r.violate("handoff: %d hops made, %d issued", hops, r.issued)
		}
		sys.Shutdown(nil)
	})
}

func (mb *member) lock(k *pthreads.Cont) {
	mb.slot = mb.g.n.begin(spLock)
	k.Lock(mb.g.m, mb.held)
}

// onHeld runs with the mutex held again: after the first Lock, or after
// a condition wait.
func (mb *member) onHeld(k *pthreads.Cont) {
	mb.g.n.end(mb.slot)
	mb.check(k)
}

func (mb *member) onSlept(k *pthreads.Cont) {
	mb.g.n.end(mb.slot)
	mb.hop(k)
}

// check runs with the mutex held: wait for the token, or take a ticket
// and hop. The member that finds no ticket left stops the ring.
func (mb *member) check(k *pthreads.Cont) {
	g := mb.g
	if g.stop {
		g.m.Unlock()
		return
	}
	if g.turn != mb.i {
		mb.slot = g.n.begin(spCondWait)
		k.CondWait(g.cv[mb.i], g.m, mb.held)
		return
	}
	if !g.r.take() {
		g.stop = true
		for _, c := range g.cv {
			c.Signal()
		}
		g.m.Unlock()
		return
	}
	if h := hopRNG(g.r.seed, g.r.issued); h%sleepOneIn == 0 {
		mb.slot = g.n.begin(spSleep)
		k.Sleep(pthreads.Duration(1+(h/sleepOneIn)%sleepMaxUS)*pthreads.Microsecond, mb.slept)
		return
	}
	mb.hop(k)
}

// hop passes the token to the successor; check then waits for the
// token's return.
func (mb *member) hop(k *pthreads.Cont) {
	g := mb.g
	if g.last != (mb.i+ringSize-1)%ringSize {
		g.r.violate("handoff: member %d hopped after member %d", mb.i, g.last)
	}
	g.last = mb.i
	g.visit[mb.i]++
	next := (mb.i + 1) % ringSize
	g.turn = next
	g.cv[next].Signal()
	now := g.n.sys.Now()
	g.r.complete(now, now.Sub(g.lastV), true)
	g.lastV = now
	mb.check(k)
}

// hopRNG is the seeded sleep pattern, a function of the hop's index so
// that it does not depend on which member draws it.
func hopRNG(seed int64, hop int) uint64 {
	g := rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(hop)*0xd1b54a32d192ed03}
	return g.next()
}
