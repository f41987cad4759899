package vtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// The governed advance as three Grant loops, one per advance kind,
// copied from before the loop state moved into the Clock: the governor
// returned each grant to a loop running on the clock owner's stack.
// TestGovernorLockstep keeps them as the oracle for Regrant.

type refGov interface {
	Grant(now, want Time) (grant, lease Time)
}

func refAdvanceGov(c *Clock, gov refGov, t Time) {
	for c.now < t {
		if t <= c.lease {
			c.now = t
			return
		}
		g, l := gov.Grant(c.now, t)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= t {
			return
		}
	}
}

func refAdvanceToGov(c *Clock, gov refGov, t Time) {
	for c.now < t {
		limit := t
		if at, ok := c.NextExpiry(); ok {
			if at <= c.now {
				return
			}
			if at < limit {
				limit = at
			}
		}
		if limit <= c.lease {
			c.now = limit
			return
		}
		g, l := gov.Grant(c.now, limit)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= limit {
			return
		}
	}
}

func refStepGov(c *Clock, gov refGov, d Duration) (advanced Duration, due bool) {
	start := c.now
	target := c.now.Add(d)
	for {
		if c.now >= target {
			return c.now.Sub(start), false
		}
		limit := target
		stopDue := false
		if at, ok := c.NextExpiry(); ok {
			if at <= c.now {
				return c.now.Sub(start), true
			}
			if at <= limit {
				limit = at
				stopDue = true
			}
		}
		if limit <= c.lease {
			c.now = limit
			return c.now.Sub(start), stopDue
		}
		g, l := gov.Grant(c.now, limit)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= limit {
			return c.now.Sub(start), stopDue
		}
	}
}

// randGov answers asks from a seeded PRNG, so two instances with one
// seed give the same answers to the same asks. While the clock is
// parked it lands arrivals on it, as other hosts would: some already
// due, some inside the ask, some beyond it. Then it grants part of the
// way, exactly the want, or past it (a pause jump), under a lease that
// ends at the grant or reaches past it.
type randGov struct {
	c    *Clock
	rng  *rand.Rand
	asks []string
	next int // payload of the next arrival
}

func (g *randGov) answer(now, want Time) (grant, lease Time) {
	g.asks = append(g.asks, fmt.Sprintf("ask(%d,%d)", now, want))
	n := g.rng.Intn(3)
	if want == Infinity && n == 0 {
		n = 1 // an idle wait for nothing must end at some arrival
	}
	for ; n > 0; n-- {
		at := Time(max(0, int64(now)-20+g.rng.Int63n(400)))
		g.c.ScheduleAt(at, g.next)
		g.next++
	}
	span := int64(want - now)
	switch k := g.rng.Intn(4); {
	case want == Infinity || k == 0:
		grant = now + 1 + Time(g.rng.Int63n(min(span, 300)))
		if grant > want {
			grant = want
		}
	case k == 1:
		grant = want + 1 + Time(g.rng.Int63n(200)) // pause jump
	default:
		grant = want
	}
	switch g.rng.Intn(3) {
	case 0:
		lease = grant
	case 1:
		lease = grant + Time(g.rng.Int63n(50))
	default:
		lease = grant + Time(g.rng.Int63n(1000))
	}
	return grant, lease
}

// regrantGov drives the Clock's own governed advance.
type regrantGov struct{ randGov }

func (g *regrantGov) Wait(now, want Time) {
	for ask := true; ask; now = g.c.Now() {
		want, ask = g.c.Regrant(g.answer(now, want))
	}
}

// refGrantGov drives the reference loops.
type refGrantGov struct{ randGov }

func (g *refGrantGov) Grant(now, want Time) (Time, Time) { return g.answer(now, want) }

// TestGovernorLockstep runs random scripts of Advance, AdvanceTo
// (bounded and Infinity), Step, local timers and cancels on two clocks:
// one governed through Regrant, one through the reference Grant loops,
// with identically seeded governors. Every ask, every final now and
// lease, every Step result and every popped event must match.
func TestGovernorLockstep(t *testing.T) {
	const scripts, ops = 400, 150
	for seed := int64(1); seed <= scripts; seed++ {
		if err := lockstepScript(seed, ops); err != "" {
			t.Fatalf("seed %d: %s", seed, err)
		}
	}
}

func lockstepScript(seed int64, ops int) string {
	nc, rc := NewClock(), NewClock()
	ng := &regrantGov{randGov{c: nc, rng: rand.New(rand.NewSource(seed))}}
	rg := &refGrantGov{randGov{c: rc, rng: rand.New(rand.NewSource(seed))}}
	nc.SetGovernor(ng)
	rc.lease = rc.now // the reference clock stays ungoverned; its loops govern it
	script := rand.New(rand.NewSource(-seed))
	var ids []TimerID
	for i := 0; i < ops; i++ {
		d := Duration(script.Int63n(300))
		var op, nres, rres string
		switch k := script.Intn(10); {
		case k < 3:
			op = fmt.Sprintf("Advance(%d)", d)
			nc.Advance(d)
			if t := rc.now.Add(d); t > rc.lease {
				refAdvanceGov(rc, rg, t)
			} else {
				rc.Advance(d)
			}
		case k < 5:
			op = fmt.Sprintf("AdvanceTo(now+%d)", d)
			tn, tr := nc.Now().Add(d), rc.now.Add(d)
			nc.AdvanceTo(tn)
			if tr > rc.lease {
				refAdvanceToGov(rc, rg, tr)
			} else {
				rc.AdvanceTo(tr)
			}
		case k == 5:
			op = "AdvanceTo(Infinity)"
			nc.AdvanceTo(Infinity)
			if Infinity > rc.lease {
				refAdvanceToGov(rc, rg, Infinity)
			}
		case k < 9:
			op = fmt.Sprintf("Step(%d)", d)
			na, nd := nc.Step(d)
			var ra Duration
			var rd bool
			if rc.now.Add(d) > rc.lease {
				ra, rd = refStepGov(rc, rg, d)
			} else {
				ra, rd = rc.Step(d)
			}
			nres, rres = fmt.Sprint(na, nd), fmt.Sprint(ra, rd)
		default:
			if len(ids) > 0 && script.Intn(2) == 0 {
				id := ids[script.Intn(len(ids))]
				op = fmt.Sprintf("Cancel(%d)", id)
				nres, rres = fmt.Sprint(nc.Cancel(id)), fmt.Sprint(rc.Cancel(id))
			} else {
				op = fmt.Sprintf("ScheduleAfter(%d)", d)
				id := nc.ScheduleAfter(d, -1)
				rc.ScheduleAfter(d, -1)
				ids = append(ids, id)
			}
		}
		nres += fmt.Sprintf(" now=%d lease=%d asks=%v", nc.Now(), nc.lease, ng.asks)
		rres += fmt.Sprintf(" now=%d lease=%d asks=%v", rc.Now(), rc.lease, rg.asks)
		ng.asks, rg.asks = ng.asks[:0], rg.asks[:0]
		for {
			ne, nok := nc.PopDue()
			re, rok := rc.PopDue()
			nres += fmt.Sprint(" ", nok, ne)
			rres += fmt.Sprint(" ", rok, re)
			if !nok || !rok {
				break
			}
		}
		if nres != rres {
			return fmt.Sprintf("op %d %s:\n  regrant:   %s\n  reference: %s", i, op, nres, rres)
		}
	}
	return ""
}
