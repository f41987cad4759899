package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// Every recording mode run with an empty -out prints its table and
// writes no file.
func TestRecordEmptyOutPrintsOnly(t *testing.T) {
	modes := []struct {
		name, head string
		run        func() error
	}{
		{"c10k", "C10k scaling", func() error { return runC10K(8, 1, "") }},
		{"c1m", "C1M resident footprint", func() error { return runC1M(1000, "") }},
		{"smp", "Simulated-SMP lock contention", func() error { return runSMP("1,2", 20, "") }},
		{"dc", "Virtual-datacenter ladder", func() error { return runDC("1", "0", 4, "") }},
	}
	before := dirNames(t)
	for _, m := range modes {
		out, err := captureStdout(t, m.run)
		if err != nil {
			t.Errorf("%s -out \"\": %v", m.name, err)
			continue
		}
		if !strings.HasPrefix(out, m.head) {
			t.Errorf("%s -out \"\" printed %q", m.name, out)
		}
	}
	if after := dirNames(t); !reflect.DeepEqual(after, before) {
		t.Errorf("an empty -out wrote files: %v -> %v", before, after)
	}
}

// dirNames lists the working directory.
func dirNames(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// captureStdout runs f with os.Stdout redirected to a temporary file
// and returns what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	data, rerr := os.ReadFile(tmp.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(data), err
}
