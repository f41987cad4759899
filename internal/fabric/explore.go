// Fleet-wide schedule exploration: a scenario is the fleet target of
// the exploration engine (internal/explore). A decision's stable
// coordinate is (host, per-host switch-point ordinal) — the global
// interleaving of hosts is fixed by the fabric's deterministic turn
// rule, so forcing the same per-host decisions reproduces the same
// fleet run bit for bit.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"pthreads/internal/core"
	"pthreads/internal/explore"
)

// Scenario is a fleet workload the exploration engine can run
// repeatedly. Make builds a fresh fleet configuration and a check
// evaluated after the run ("" = clean).
type Scenario struct {
	Name string
	Desc string
	Make func() (Config, func(f *Fabric, runErr error) string)
}

// FleetOutcome is one scenario run: the engine's outcome plus the
// fleet's schedule fingerprint and observability-plane report (nil
// unless the run attached the plane).
type FleetOutcome struct {
	explore.RunOutcome
	Fingerprint string
	Obs         *ObsReport
}

// Hosts implements explore.Target.
func (sc Scenario) Hosts() int {
	cfg, _ := sc.Make()
	return len(cfg.Hosts)
}

// Run implements explore.Target.
func (sc Scenario) Run(explorer func(host int) core.Explorer) explore.RunOutcome {
	return sc.run(explorer, ObsConfig{}).RunOutcome
}

// run executes the scenario once, every host traced and host i
// scheduled by explorer(i), with the observability plane configured
// by oc. Its TraceHash covers the fingerprint and every host's rendered
// trace; equal hashes mean byte-identical fleet runs.
func (sc Scenario) run(explorer func(host int) core.Explorer, oc ObsConfig) FleetOutcome {
	cfg, check := sc.Make()
	for i := range cfg.Hosts {
		cfg.Hosts[i].Cfg.Explorer = explorer(i)
	}
	cfg.Trace = true
	cfg.Obs = oc
	f, err := New(cfg)
	if err != nil {
		return FleetOutcome{RunOutcome: explore.RunOutcome{Failure: "bad fleet config: " + err.Error(), RunErr: err}}
	}
	runErr := f.Run()
	out := FleetOutcome{RunOutcome: explore.RunOutcome{RunErr: runErr}, Fingerprint: f.Fingerprint()}
	h := sha256.New()
	fmt.Fprintf(h, "fingerprint %s\n", out.Fingerprint)
	for _, host := range f.Hosts() {
		evs := host.TraceEvents()
		out.Hosts = append(out.Hosts, explore.HostTrace{Name: host.Name, Events: evs, End: host.Sys.Clock().Now()})
		fmt.Fprintf(h, "host %s\n", host.Name)
		for _, ev := range evs {
			fmt.Fprintf(h, "%d %s %s %s %s %s\n", ev.At, ev.Kind, evThreadName(ev), ev.Obj, ev.Arg, ev.Detail)
		}
	}
	out.TraceHash = hex.EncodeToString(h.Sum(nil)[:8])
	out.Obs = f.ObsReport()
	out.Failure = check(f, runErr)
	return out
}

// Observe runs the scenario's unforced schedule through the engine with
// the observability plane attached. The plane never perturbs a
// schedule, so any oc reproduces explore.Replay(sc, explore.Schedule{}).
func Observe(sc Scenario, oc ObsConfig) FleetOutcome {
	var out FleetOutcome
	explore.Replay(observed{sc, oc, &out}, explore.Schedule{})
	return out
}

// observed is a scenario target that keeps its run's fleet outcome.
type observed struct {
	sc  Scenario
	oc  ObsConfig
	out *FleetOutcome
}

func (o observed) Hosts() int { return o.sc.Hosts() }

func (o observed) Run(explorer func(host int) core.Explorer) explore.RunOutcome {
	*o.out = o.sc.run(explorer, o.oc)
	return o.out.RunOutcome
}

func evThreadName(ev core.TraceEvent) string {
	if ev.Thread == nil {
		return "-"
	}
	if n := ev.Thread.Name(); n != "" {
		return n
	}
	return "thread#" + strconv.Itoa(int(ev.Thread.ID()))
}
