package main

import (
	"testing"

	"pthreads/internal/explore"
	"pthreads/internal/fabric"
)

// TestEveryListedNameResolves checks that -list and a run read one
// registry: every name -list prints resolves to the target of that
// name, with the description -list printed beside it, and a name it
// does not print does not.
func TestEveryListedNameResolves(t *testing.T) {
	p := explore.DefaultParams()
	for _, w := range explore.Workloads(p) {
		if _, name, desc, ok := target(w.Name, "", p); !ok || name != w.Name || desc != w.Desc {
			t.Errorf("-workload %s resolves to %q (%q, ok %v)", w.Name, name, desc, ok)
		}
	}
	for _, sc := range fabric.FleetScenarios() {
		if _, name, desc, ok := target("", sc.Name, p); !ok || name != sc.Name || desc != sc.Desc {
			t.Errorf("-fleet %s resolves to %q (%q, ok %v)", sc.Name, name, desc, ok)
		}
	}
	if _, _, _, ok := target("no-such-workload", "", p); ok {
		t.Error("an unlisted workload name resolved")
	}
	if _, _, _, ok := target("", "no-such-fleet", p); ok {
		t.Error("an unlisted fleet name resolved")
	}
}

// TestRunSizesWorkloadsByFlags checks that a run builds the workload at
// the sizes its flags give, through the same registry.
func TestRunSizesWorkloadsByFlags(t *testing.T) {
	p := explore.Params{Philosophers: 5, Meals: 2, Threads: 4, Iters: 6}
	for _, c := range []struct{ name, desc string }{
		{"philosophers-broken", explore.PhilosophersWorkload(true, 5, 2).Desc},
		{"racy-counter", explore.RacyCounterWorkload(true, 4, 6).Desc},
	} {
		if _, _, desc, ok := target(c.name, "", p); !ok || desc != c.desc {
			t.Errorf("%s at %+v: description %q, want %q", c.name, p, desc, c.desc)
		}
	}
}
