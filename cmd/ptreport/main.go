// Command ptreport regenerates every reproduced artifact of the paper's
// evaluation in one run — Table 2 on both machines, Table 1, Figure 5
// with the Table 3 quantification, Table 4 in both unlock modes, the
// perverted-scheduling experiment, the ablation studies, and the
// context-switch attribution. Its output is the body of EXPERIMENTS.md.
//
// Three subcommands print one artifact each:
//
//	ptreport conform             # the POSIX 1003.4a (Draft 6) checklist; exits 1 if a check fails
//	ptreport inversion           # Figure 5 (a,b,c) + Table 3 quantification
//	ptreport inversion -table 4  # Table 4 mixing trace
//	ptreport pervert [-seed N]   # perverted scheduling, random-switch PRNG seed N
package main

import (
	"flag"
	"fmt"
	"os"

	"pthreads/internal/conformance"
	"pthreads/internal/eval"
)

func main() {
	if len(os.Args) > 1 {
		name, args := os.Args[1], os.Args[2:]
		fs := flag.NewFlagSet("ptreport "+name, flag.ExitOnError)
		switch name {
		case "conform":
			parse(fs, args)
			results := conformance.RunAll()
			fmt.Print(conformance.Format(results))
			for _, r := range results {
				if !r.Pass() {
					os.Exit(1)
				}
			}
			return
		case "inversion":
			table := fs.Int("table", 3, "4 prints the Table 4 mixing trace")
			parse(fs, args)
			if *table == 4 {
				emit(fs.Name(), eval.FormatTable4)
			} else {
				emit(fs.Name(), eval.FormatFigure5)
			}
			return
		case "pervert":
			seed := fs.Int64("seed", 1, "PRNG seed for the random-switch policy")
			parse(fs, args)
			emit(fs.Name(), func() (string, error) { return eval.FormatPervert(*seed) })
			return
		}
	}
	report()
}

// parse parses a subcommand's flags and rejects anything left over.
func parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected arguments: %v\n", fs.Name(), fs.Args())
		os.Exit(1)
	}
}

// emit prints one artifact, or its error and exits 1.
func emit(name string, f func() (string, error)) {
	out, err := f()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// report prints the full report.
func report() {
	// The exploration and profile sections are opt-in so the default
	// report stays byte-stable across releases that only add new
	// experiments.
	withExplore := flag.Bool("explore", false, "append the schedule-exploration section")
	withProfile := flag.Bool("profile", false, "append the virtual-time profiler section")
	withFleet := flag.Bool("fleet", false, "append the fleet observability section")
	withMem := flag.Bool("mem", false, "append the resident-thread memory section")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ptreport: unexpected arguments: %v\n", flag.Args())
		os.Exit(1)
	}
	sections := []func() (string, error){
		func() (string, error) {
			rows, err := eval.Table2()
			if err != nil {
				return "", err
			}
			return eval.FormatTable2(rows), nil
		},
		eval.FormatTable1,
		eval.FormatFigure5,
		eval.FormatTable4,
		func() (string, error) { return eval.FormatPervert(1) },
		eval.FormatAblations,
		eval.FormatAttribution,
		eval.FormatSyscallProfiles,
		eval.FormatUtilizationSweep,
		eval.FormatQueueStats,
		eval.FormatIOStats,
	}
	if *withExplore {
		sections = append(sections, eval.FormatExplore)
	}
	if *withProfile {
		sections = append(sections, eval.FormatProfile)
	}
	if *withFleet {
		sections = append(sections, eval.FormatFleetObs)
	}
	if *withMem {
		sections = append(sections, eval.FormatMem)
	}
	for i, f := range sections {
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptreport: section %d: %v\n", i, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Println()
	}
}
