package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runReps runs reps invocations of this program per workload, seeds
// seed..seed+reps-1, each a fresh process, and prints every metric's
// median and quartiles, its spread (IQR/median) and the regression
// bound that spread supports: max(10%, 3 × spread), so that the spread
// stays within a third of the bound.
func runReps(ws []*workload, seed int64, seconds, reps int, traceArg string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range ws {
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < reps; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s rep %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s rep %d: %w", w.name, i, err)
			}
			for name, m := range rep.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		slices.Sort(names)
		fmt.Printf("%s: %d invocations, seeds %d..%d\n", w.name, reps, seed, seed+int64(reps)-1)
		fmt.Printf("  %-36s %14s %14s %14s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range names {
			v := vals[name]
			med := medianF(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-36s %14.4f %14.4f %14.4f %7.2f%% %6.1f%%  %s\n",
				name, med, q1, q3, 100*spread, 100*max(0.10, 3*spread), units[name])
		}
	}
	return nil
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(data, n=4).
func quartiles(v []float64) (q1, q3 float64) {
	d := slices.Clone(v)
	slices.Sort(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
