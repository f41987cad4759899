package main

import (
	"flag"
	"fmt"
	"strings"

	"pthreads"
	"pthreads/internal/core"
	"pthreads/internal/trace"
)

// traceScenarios are the canned runs ptreport trace draws, with the
// mutex whose hold intervals the timeline marks ("" for none).
var traceScenarios = map[string]struct {
	mutex string
	run   func(rec *trace.Recorder) error
}{
	"rr":       {"", traceRR},
	"prodcons": {"buffer", traceProdCons},
	"signals":  {"", traceSignals},
}

// traceCommand declares the trace flags on fs and returns the renderer:
// a canned scenario run with the trace recorder attached, drawn as an
// ASCII timeline — the visual debugging aid the paper's future-work
// section sketches ("context switches could become visible to the
// user"). Figure 5's timelines are the inversion section.
func traceCommand(fs *flag.FlagSet) func() (string, error) {
	scenario := fs.String("scenario", "rr", "rr | prodcons | signals")
	width := fs.Int("width", 76, "timeline width in characters")
	dump := fs.Bool("dump", false, "also print the raw event list")
	return func() (string, error) {
		sc, ok := traceScenarios[*scenario]
		if !ok {
			return "", fmt.Errorf("unknown scenario %q", *scenario)
		}
		rec := trace.New()
		if err := sc.run(rec); err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "scenario %q:\n", *scenario)
		b.WriteString(rec.Timeline(sc.mutex, *width))
		if *dump {
			b.WriteString("\n")
			b.WriteString(rec.Dump())
		}
		return b.String(), nil
	}
}

// traceRR shows round-robin slicing of three compute-bound threads.
func traceRR(rec *trace.Recorder) error {
	sys := core.New(core.Config{Tracer: rec, Quantum: 2 * pthreads.Millisecond})
	return sys.Run(func() {
		var ths []*pthreads.Thread
		for i := 0; i < 3; i++ {
			attr := pthreads.DefaultAttr()
			attr.Policy = pthreads.SchedRR
			attr.Name = fmt.Sprintf("rr%d", i)
			th, _ := sys.Create(attr, func(any) any {
				sys.Compute(8 * pthreads.Millisecond)
				return nil
			}, nil)
			ths = append(ths, th)
		}
		for _, th := range ths {
			sys.Join(th)
		}
	})
}

// traceProdCons shows a producer and consumer hand-off over a buffer.
func traceProdCons(rec *trace.Recorder) error {
	sys := core.New(core.Config{Tracer: rec})
	return sys.Run(func() {
		m := sys.MustMutex(pthreads.MutexAttr{Name: "buffer"})
		notEmpty := sys.NewCond("notEmpty")
		items := 0
		attr := pthreads.DefaultAttr()
		attr.Name = "producer"
		prod, _ := sys.Create(attr, func(any) any {
			for i := 0; i < 5; i++ {
				sys.Compute(2 * pthreads.Millisecond)
				m.Lock()
				items++
				notEmpty.Signal()
				m.Unlock()
			}
			return nil
		}, nil)
		attr.Name = "consumer"
		cons, _ := sys.Create(attr, func(any) any {
			for i := 0; i < 5; i++ {
				m.Lock()
				for items == 0 {
					notEmpty.Wait(m)
				}
				items--
				m.Unlock()
				sys.Compute(3 * pthreads.Millisecond)
			}
			return nil
		}, nil)
		sys.Join(prod)
		sys.Join(cons)
	})
}

// traceSignals shows an alarm interrupting computation and a directed
// kill waking a sleeper.
func traceSignals(rec *trace.Recorder) error {
	sys := core.New(core.Config{Tracer: rec})
	return sys.Run(func() {
		sys.Sigaction(pthreads.SIGALRM, func(pthreads.Signal, *pthreads.SigInfo, *pthreads.SigContext) {
			sys.Compute(pthreads.Millisecond)
		}, 0)
		sys.Sigaction(pthreads.SIGUSR1, func(pthreads.Signal, *pthreads.SigInfo, *pthreads.SigContext) {
			sys.Compute(pthreads.Millisecond)
		}, 0)
		attr := pthreads.DefaultAttr()
		attr.Name = "computer"
		comp, _ := sys.Create(attr, func(any) any {
			sys.Alarm(3 * pthreads.Millisecond)
			sys.Compute(8 * pthreads.Millisecond)
			return nil
		}, nil)
		attr.Name = "sleeper"
		attr.Priority = pthreads.DefaultPrio + 1
		slp, _ := sys.Create(attr, func(any) any {
			sys.Sleep(pthreads.Second)
			return nil
		}, nil)
		sys.Sleep(5 * pthreads.Millisecond)
		sys.Kill(slp, pthreads.SIGUSR1)
		sys.Join(comp)
		sys.Join(slp)
	})
}
