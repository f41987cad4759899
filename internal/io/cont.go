package io

import (
	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Continuation entry points for the jacket layer. ContRead is Conn.Read
// with the suspension expressed as a declared continuation op (k.FDOp):
// a thread blocked in it holds no goroutine, only its TCB and frame plus
// the read's pooled record (connOp). The jacket bookkeeping — span,
// attempt, error mapping — is Read's own two halves (readStart and
// readDone), and the caller's step rides in the record, which the
// completion step reads back from the frame: no closure and no state of
// its own.

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
	op := c.readStart(max)
	op.then = then
	k.FDOp(c.nc.FD(), core.VerbRead, d, op, contReadDone)
}

// contReadDone is the completion step, shared by every ContRead (no
// per-call closure): Conn.read's post-park half, then the caller's step.
func contReadDone(k *core.Cont) {
	op := k.DeclaredFDOp().(*connOp)
	then := op.then
	k.N, k.Err = readDone(op, k.Err)
	then(k)
}
