package io

import (
	"pthreads/internal/core"
	"pthreads/internal/obs"
	"pthreads/internal/vtime"
)

// Continuation entry points for the jacket layer. ContRead is Conn.Read
// with the suspension expressed as a declared continuation op (k.FDOp):
// a thread blocked in it holds no goroutine, only its TCB plus the
// pooled per-call state below. The jacket bookkeeping — span, pooled
// attempt struct, error mapping — is Read's own two halves (readStart
// and readDone), threaded through k.Env instead of a closure so
// steady-state reads allocate nothing.

// contReadState carries one ContRead call's jacket state across the
// park. Arena-backed and recycled when the call completes.
type contReadState struct {
	c       *Conn
	op      *connOp
	ref     obs.SpanRef
	then    core.ContFunc
	prevEnv any
}

// ContRead declares a blocking read of up to max bytes as the step's
// continuation op; then runs when the read completes, with k.N holding
// the count and k.Err the result (EOF at end of stream). Semantics,
// charges, and traces are identical to Conn.Read.
func (c *Conn) ContRead(k *core.Cont, max int, then core.ContFunc) {
	c.contRead(k, max, 0, then)
}

// ContReadTimeout is ContRead bounded by d of virtual time (ETIMEDOUT).
func (c *Conn) ContReadTimeout(k *core.Cont, max int, d vtime.Duration, then core.ContFunc) {
	c.contRead(k, max, d, then)
}

func (c *Conn) contRead(k *core.Cont, max int, d vtime.Duration, then core.ContFunc) {
	if max < 0 {
		k.N, k.Err = 0, core.EINVAL.Or()
		then(k)
		return
	}
	ref, op := c.readStart(max)
	st := c.x.getContRead()
	st.c, st.op, st.ref, st.then, st.prevEnv = c, op, ref, then, k.Env
	k.Env = st
	k.FDOp(c.nc.FD(), core.VerbRead, d, op, contReadDone)
}

// contReadDone is the completion step, shared by every ContRead (no
// per-call closure): Conn.read's post-park half, then the caller's step.
func contReadDone(k *core.Cont) {
	st := k.Env.(*contReadState)
	c, op, ref, then := st.c, st.op, st.ref, st.then
	k.Env = st.prevEnv
	c.x.putContRead(st)
	k.N, k.Err = c.readDone(ref, op, k.Err)
	then(k)
}

// getContRead checks a read-state record out of the arena.
func (x *IO) getContRead() *contReadState { return x.contReads.Get() }

// putContRead recycles a completed read-state record.
func (x *IO) putContRead(st *contReadState) { x.contReads.Put(st) }
