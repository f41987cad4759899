// Command ptreport regenerates every reproduced artifact of the paper's
// evaluation. The full report is the sections below in order — Table 2
// on both machines, Table 1, Figure 5 with the Table 3 quantification,
// Table 4 in both unlock modes, the perverted-scheduling experiment,
// the ablation studies, the context-switch attribution, the syscall
// profiles, the utilization sweep, the ready-queue pressure and the
// blocking-I/O jacket — and its output is the body of EXPERIMENTS.md.
//
// Usage:
//
//	ptreport [-explore] [-profile] [-fleet] [-mem]  # the full report; each flag appends its section
//	ptreport NAME                                   # one section, byte for byte as in the full report
//	ptreport pervert [-seed N]                      # perverted scheduling, random-switch PRNG seed N
//	ptreport conform                                # the POSIX 1003.4a (Draft 6) checklist; exits 1 if a check fails
//	ptreport trace [-scenario rr|prodcons|signals] [-width N] [-dump]
//
// NAME is one of table2, table1, inversion, table4, pervert, ablation,
// attrib, syscalls, utilization, queues, netio, explore, profile, fleet
// and mem.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pthreads/internal/conformance"
	"pthreads/internal/eval"
)

// A section is one artifact of the report. run declares the section's
// flags on fs and returns its renderer; the full report leaves every
// flag at its default.
type section struct {
	name string
	// optIn, when set, is the usage of the -name flag that appends the
	// section to the full report; the other sections always print. The
	// opt-in sections keep the default report byte-stable across
	// releases that only add experiments.
	optIn string
	run   func(fs *flag.FlagSet) func() (string, error)
}

// fixed is the run of a section without flags.
func fixed(render func() (string, error)) func(*flag.FlagSet) func() (string, error) {
	return func(*flag.FlagSet) func() (string, error) { return render }
}

var sections = []section{
	{name: "table2", run: fixed(func() (string, error) {
		rows, err := eval.Table2()
		if err != nil {
			return "", err
		}
		return eval.FormatTable2(rows), nil
	})},
	{name: "table1", run: fixed(eval.FormatTable1)},
	{name: "inversion", run: fixed(eval.FormatFigure5)},
	{name: "table4", run: fixed(eval.FormatTable4)},
	{name: "pervert", run: func(fs *flag.FlagSet) func() (string, error) {
		seed := fs.Int64("seed", 1, "PRNG seed for the random-switch policy")
		return func() (string, error) { return eval.FormatPervert(*seed) }
	}},
	{name: "ablation", run: fixed(eval.FormatAblations)},
	{name: "attrib", run: fixed(eval.FormatAttribution)},
	{name: "syscalls", run: fixed(eval.FormatSyscallProfiles)},
	{name: "utilization", run: fixed(eval.FormatUtilizationSweep)},
	{name: "queues", run: fixed(eval.FormatQueueStats)},
	{name: "netio", run: fixed(eval.FormatIOStats)},
	{name: "explore", optIn: "append the schedule-exploration section", run: fixed(eval.FormatExplore)},
	{name: "profile", optIn: "append the virtual-time profiler section", run: fixed(eval.FormatProfile)},
	{name: "fleet", optIn: "append the fleet observability section", run: fixed(eval.FormatFleetObs)},
	{name: "mem", optIn: "append the resident-thread memory section", run: fixed(eval.FormatMem)},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the exit status. Output is
// printed even when the renderer also reports an error, so a failing
// conformance check still shows the checklist.
func run(args []string, stdout, stderr io.Writer) int {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet(strings.TrimSpace("ptreport "+name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	var render func() (string, error)
	switch name {
	case "":
		render = report(fs)
	case "conform":
		render = conform
	case "trace":
		render = traceCommand(fs)
	default:
		for _, sec := range sections {
			if sec.name == name {
				render = sec.run(fs)
			}
		}
		if render == nil {
			fmt.Fprintf(stderr, "ptreport: no section %q\n", name)
			return 2
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected arguments: %v\n", fs.Name(), fs.Args())
		return 1
	}
	out, err := render()
	fmt.Fprint(stdout, out)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return 0
}

// report declares the opt-in flags on fs and returns the renderer of
// the full report: the sections in table order, each followed by a
// blank line.
func report(fs *flag.FlagSet) func() (string, error) {
	on := map[string]*bool{}
	for _, sec := range sections {
		if sec.optIn != "" {
			on[sec.name] = fs.Bool(sec.name, false, sec.optIn)
		}
	}
	return func() (string, error) {
		var b strings.Builder
		for _, sec := range sections {
			if sec.optIn != "" && !*on[sec.name] {
				continue
			}
			out, err := sec.run(flag.NewFlagSet(sec.name, flag.ContinueOnError))()
			if err != nil {
				return b.String(), fmt.Errorf("section %s: %w", sec.name, err)
			}
			b.WriteString(out)
			b.WriteString("\n")
		}
		return b.String(), nil
	}
}

// conform runs the POSIX 1003.4a (Draft 6) checklist; a failed check is
// an error.
func conform() (string, error) {
	results := conformance.RunAll()
	failed := 0
	for _, r := range results {
		if !r.Pass() {
			failed++
		}
	}
	if failed > 0 {
		return conformance.Format(results), fmt.Errorf("%d of %d checks failed", failed, len(results))
	}
	return conformance.Format(results), nil
}
