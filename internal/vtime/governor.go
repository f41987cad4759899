package vtime

// Multi-clock coordination. A single simulated host owns its clock
// outright: Advance/AdvanceTo/Step move `now` immediately. When several
// hosts (each with its own Clock) share one causally-consistent virtual
// timeline — the fabric's virtual datacenter — each clock must ask a
// central authority before crossing the frontier up to which it has been
// proven safe to run. The Governor is that authority.
//
// The protocol is a conservative parallel-DES lease: the governor hands
// each clock a *lease* — a timestamp below which the clock may free-run
// without asking again, because every other host's clock plus the
// minimum cross-host event latency lies at or beyond it. The clock
// caches the lease, so the steady-state cost of governance on a host
// that is behind its peers is one comparison per advance. With no
// governor attached (every single-host run), all three advance paths
// take their original branches untouched: byte-identical behavior.
//
// An advance that crosses the lease is recorded in the clock — its
// kind, its target, the want of its outstanding ask and Step's due flag
// — and, once it must ask, the clock's owner blocks in Governor.Wait.
// The governor answers every ask with Regrant, which applies one grant
// and runs the advance on to its next ask or to completion. A grant may
// be less than asked (a partial grant: Regrant re-checks the timer queue
// for events other hosts landed while the clock was parked, and asks
// again) or more than asked (a pause jump: the fabric froze the host for
// a fault window, so the pending charge completes late by the width of
// the window). Because the loop state lives in the clock, not on its
// owner's stack, the governor may Regrant from any goroutine that holds
// the fleet's turn, and the owner wakes once per advance, not once per
// grant.

// Governor arbitrates clock advancement across hosts. Wait is called
// with the clock's current time and the target its advance must ask
// for (always > now), and returns only once the advance is complete.
// Until then the governor answers the ask, and every further ask, by
// calling the clock's Regrant. Implementations block the calling
// goroutine while another host runs — that is the mechanism by which
// only one host runs at a time.
type Governor interface {
	Wait(now, want Time)
}

// advance is the governed advance in progress (see Regrant).
type advance struct {
	// charge marks committed work (Advance), which never stops at a
	// timer expiry. AdvanceTo and Step stop at the next one.
	charge bool
	target Time
	// want is the frontier of the outstanding ask; due records that it
	// is a timer expiry, which Step reports.
	want Time
	due  bool
}

// SetGovernor attaches (or, with nil, detaches) a governor. The lease
// resets to the current instant, so the very next advance beyond `now`
// asks for permission.
func (c *Clock) SetGovernor(g Governor) {
	c.gov = g
	c.lease = c.now
}

// govern runs a governed advance to target: it free-runs within the
// lease, and otherwise waits on the governor until the advance is done.
func (c *Clock) govern(charge bool, target Time) {
	c.adv = advance{charge: charge, target: target}
	if want, ask := c.resume(); ask {
		c.gov.Wait(c.now, want)
	}
}

// Regrant applies a grant (always > now) and its lease (always >= grant)
// to the advance in progress, then runs the advance on: it returns the
// frontier of the next ask and true, or false once the advance is
// complete. Only the governor calls it, while the clock's owner is
// blocked in Wait.
func (c *Clock) Regrant(grant, lease Time) (want Time, ask bool) {
	if grant <= c.now || lease < grant {
		panic("vtime: governor grant out of order")
	}
	c.lease = lease
	c.now = grant
	if grant >= c.adv.want {
		return 0, false
	}
	return c.resume()
}

// resume runs the advance in progress from now to its next ask, or to
// completion. A charge asks straight for its target. The other kinds
// stop at a timer already due, and otherwise ask no further than the
// next expiry, so an event another host landed while this clock was
// parked is processed at its true instant.
func (c *Clock) resume() (want Time, ask bool) {
	a := &c.adv
	if c.now >= a.target {
		a.due = false
		return 0, false
	}
	limit, due := a.target, false
	if !a.charge {
		if at, ok := c.NextExpiry(); ok {
			if at <= c.now {
				a.due = true
				return 0, false
			}
			if at <= limit {
				limit, due = at, true
			}
		}
	}
	a.due = due
	if limit <= c.lease {
		c.now = limit
		return 0, false
	}
	a.want = limit
	return limit, true
}

// advanceGov completes a charge to target t under a governor. Charges
// model committed work (instruction costs): they never stop early at
// timer expiries, so the advance only ends at t — or beyond it, when a
// pause jump carries the completion past the target.
func (c *Clock) advanceGov(t Time) { c.govern(true, t) }

// advanceToGov idles the clock toward t under a governor. Unlike a
// charge, the idle path is truncatable: if another host lands an event
// earlier than t while this clock is parked, the advance stops at the
// arrival so the host can process it. t may be Infinity ("sleep until
// anything arrives").
func (c *Clock) advanceToGov(t Time) { c.govern(false, t) }

// stepGov is the governed Step: like the ungoverned one it stops at the
// next timer expiry, but it may also advance past the target under a
// pause jump (the caller observes advanced > d and treats the excess as
// inflated computation time).
func (c *Clock) stepGov(d Duration) (advanced Duration, due bool) {
	start := c.now
	c.govern(false, start.Add(d))
	return c.now.Sub(start), c.adv.due
}
