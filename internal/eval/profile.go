package eval

import (
	"fmt"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/hw"
	"pthreads/internal/metrics"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// Profiled workloads: the named scenarios ptprof (and ptreport -profile)
// can run with the metrics collector attached. Each reuses an existing
// evaluation scenario through its config-modifier seam, so the profiled
// run exercises exactly the code the published tables measure.

// ProfiledRun is one workload executed with the collector (and a trace
// recorder) attached.
type ProfiledRun struct {
	Workload  string
	Collector *metrics.Collector
	Profile   *metrics.Profile
	Events    []core.TraceEvent
	End       vtime.Time
	// RunErr is the scenario's own termination error, kept (not returned)
	// for workloads that end abnormally on purpose — the deadlock
	// workload's run *should* die with the kernel's deadlock report.
	RunErr error
}

// ProfileWorkloads lists the accepted workload names.
func ProfileWorkloads() []string {
	return []string{"webserver", "inversion", "inversion-inherit", "inversion-ceiling", "deadlock"}
}

// RunProfiled executes the named workload with a metrics collector and
// trace recorder attached and returns the finalized profile.
func RunProfiled(workload string, opt metrics.Options) (*ProfiledRun, error) {
	col := metrics.New(opt)
	rec := trace.New()
	mod := func(cfg *core.Config) {
		if cfg.Tracer == nil {
			cfg.Tracer = rec
		} else {
			// The scenario brought its own recorder (Figure 5): export
			// reads that one.
			rec = cfg.Tracer.(*trace.Recorder)
		}
		cfg.Tracer = trace.Tee{cfg.Tracer, col}
	}

	out := &ProfiledRun{Workload: workload, Collector: col}
	switch workload {
	case "webserver":
		r, err := runNetScenario(8, 64, mod)
		if err != nil {
			return nil, err
		}
		out.End = r.End
	case "inversion", "inversion-inherit", "inversion-ceiling":
		proto := core.ProtocolNone
		switch workload {
		case "inversion-inherit":
			proto = core.ProtocolInherit
		case "inversion-ceiling":
			proto = core.ProtocolCeiling
		}
		r, err := runFigure5(proto, mod)
		if err != nil {
			return nil, err
		}
		out.End = lastEventTime(r.Recorder.Events)
		rec = r.Recorder
	case "deadlock":
		end, err := runDeadlockScenario(mod)
		if err == nil {
			return nil, fmt.Errorf("deadlock workload terminated cleanly; expected the kernel's deadlock report")
		}
		out.RunErr = err
		out.End = end
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(ProfileWorkloads(), ", "))
	}

	col.Finalize(out.End)
	out.Events = rec.Events
	out.Profile = col.Snapshot(workload, out.End)
	return out, nil
}

// lastEventTime returns the final trace timestamp (the run's end as the
// recorder saw it).
func lastEventTime(evs []core.TraceEvent) vtime.Time {
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].At
}

// runDeadlockScenario is the classic AB-BA two-mutex deadlock, staged so
// both threads hold their first mutex before trying the other. The run
// dies with the kernel's deadlock report; the returned time is the
// virtual instant it did.
func runDeadlockScenario(mod func(*core.Config)) (vtime.Time, error) {
	cfg := core.Config{Machine: hw.SPARCstationIPX()}
	if mod != nil {
		mod(&cfg)
	}
	s := core.New(cfg)
	var end vtime.Time
	err := s.Run(func() {
		ma := s.MustMutex(core.MutexAttr{Name: "A"})
		mb := s.MustMutex(core.MutexAttr{Name: "B"})
		mk := func(name string, first, second *core.Mutex) *core.Thread {
			attr := core.DefaultAttr()
			attr.Name = name
			th, err := s.Create(attr, func(any) any {
				first.Lock()
				s.Sleep(vtime.Millisecond) // let the peer take its first mutex
				second.Lock()
				second.Unlock()
				first.Unlock()
				return nil
			}, nil)
			if err != nil {
				panic(err)
			}
			return th
		}
		t1 := mk("ab", ma, mb)
		t2 := mk("ba", mb, ma)
		s.Join(t1)
		s.Join(t2)
	})
	end = s.Now()
	return end, err
}

// FormatProfile renders the ptreport Profile section: the webserver
// workload profiled, plus the inversion watchdog demonstrated across the
// three Figure 5 protocols.
func FormatProfile() (string, error) {
	var b strings.Builder
	b.WriteString("Virtual-time profiler (internal/metrics on the Config.Tracer stream)\n\n")

	run, err := RunProfiled("webserver", metrics.Options{})
	if err != nil {
		return "", err
	}
	b.WriteString(metrics.FormatText(run.Profile, 5))

	b.WriteString("\nInversion watchdog across the Figure 5 protocols:\n")
	for _, w := range []string{"inversion", "inversion-inherit", "inversion-ceiling"} {
		r, err := RunProfiled(w, metrics.Options{})
		if err != nil {
			return "", err
		}
		finds := r.Collector.FindingsOfKind("priority-inversion")
		if len(finds) == 0 {
			fmt.Fprintf(&b, "  %-18s quiet\n", w)
			continue
		}
		for _, f := range finds {
			fmt.Fprintf(&b, "  %-18s %s\n", w, f.String())
		}
	}
	return b.String(), nil
}
