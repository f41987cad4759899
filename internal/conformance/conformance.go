// Package conformance is a table-driven semantics checklist for the
// library against POSIX 1003.4a (Draft 6) as the paper describes it: each
// check states one requirement — drawn from the draft's wording or the
// paper's own description of its implementation — and verifies it in a
// fresh thread system. The paper reports its implementation "passes
// validation tests for tasking"; this package is the equivalent artifact
// for the reproduction, runnable as one report (`ptreport conform`).
package conformance

import (
	"fmt"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/hw"
)

// Check is one conformance requirement.
type Check struct {
	// ID is stable and sorted by area: "mutex.3", "signal.7", ...
	ID string
	// Requirement quotes or paraphrases the rule being checked.
	Requirement string
	// Run verifies the rule inside a running system; a non-nil error is
	// a conformance failure.
	Run func(s *core.System) error
	// Config customizes the system the check runs in (optional).
	Config core.Config
}

// Result is one executed check.
type Result struct {
	Check
	Err error
}

// Pass reports whether the check conformed.
func (r Result) Pass() bool { return r.Err == nil }

// registry collects checks from the per-area files.
var registry []Check

func register(area string, n int, requirement string, run func(s *core.System) error) {
	registry = append(registry, Check{
		ID:          fmt.Sprintf("%s.%d", area, n),
		Requirement: requirement,
		Run:         run,
	})
}

// Checks returns all registered checks, sorted by ID.
func Checks() []Check {
	out := make([]Check, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunAll executes every check, each in its own system.
func RunAll() []Result {
	checks := Checks()
	results := make([]Result, 0, len(checks))
	for _, c := range checks {
		results = append(results, Result{Check: c, Err: runOne(c)})
	}
	return results
}

// runOne executes a single check, converting panics and system errors
// into failures.
func runOne(c Check) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := c.Config
	if cfg.Machine == nil {
		cfg.Machine = hw.SPARCstationIPX()
	}
	s := core.New(cfg)
	var checkErr error
	runErr := s.Run(func() { checkErr = c.Run(s) })
	if checkErr != nil {
		return checkErr
	}
	return runErr
}

// Format renders the results as the conformance report.
func Format(results []Result) string {
	var b strings.Builder
	passed := 0
	for _, r := range results {
		status := "PASS"
		if !r.Pass() {
			status = "FAIL"
		} else {
			passed++
		}
		fmt.Fprintf(&b, "  %-4s %-12s %s\n", status, r.ID, r.Requirement)
		if r.Err != nil {
			fmt.Fprintf(&b, "       -> %v\n", r.Err)
		}
	}
	header := fmt.Sprintf("POSIX 1003.4a (Draft 6) conformance checklist: %d/%d passed\n", passed, len(results))
	return header + b.String()
}

// failf builds a conformance failure.
func failf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// expectErrno asserts a call returned the given errno.
func expectErrno(err error, want core.Errno, what string) error {
	got, ok := core.AsErrno(err)
	if !ok || got != want {
		return failf("%s: got %v, want %v", what, err, want)
	}
	return nil
}
