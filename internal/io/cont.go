package io

import (
	"pthreads/internal/core"
	"pthreads/internal/obs"
	"pthreads/internal/vtime"
)

// Continuation entry points for the jacket layer. ContRead is Conn.Read
// with the suspension expressed as a declared continuation op (k.FDOp):
// a thread blocked in it holds no goroutine and no record, only its TCB
// and frame. The endpoint is the op, the request and the results live
// in the frame (k.N, k.Err), and the attempt maps the net layer's
// errors itself, so the caller's step is the frame's next step. Only a
// read that opened a span has a record (spanOp) and a completion step,
// which closes the span before the caller's step runs.

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
	op, sp := c.fdOp(obs.KRead, false)
	if sp != nil {
		sp.then, then = then, sp.done
	}
	k.FDOp(c.nc.FD(), core.VerbRead, d, op, max, then)
}

// contDone is a spanned ContRead's completion step: the read's half
// after the wait, then the caller's step.
func (op *spanOp) contDone(k *core.Cont) {
	then := op.then
	k.N, k.Err = op.readDone(k.N, k.Err)
	then(k)
}
