// Package explore is the schedule-exploration engine layered on the
// deterministic baton-passing core: record/replay of forced-switch
// decisions, PCT-style randomized-priority exploration, systematic
// bounded-preemption search, schedule shrinking, and a happens-before +
// lockset race checker over trace events.
//
// The engine treats one run of a target — a workload on one host, or a
// fleet of hosts (internal/fabric) — as a sequence of scheduling
// *decisions*: at every switch point (kernel exit, mutex acquisition)
// a host's core asks whether to preempt the running thread and which
// ready thread to dispatch instead. Because the simulation is
// deterministic, the list of decisions taken — a compact schedule token
// — reproduces the byte-identical trace, which turns any found bug into
// a one-line repro.
package explore

import (
	"fmt"
	"strconv"
	"strings"
)

// Decision is one forced switch: at the Index'th switch point host Host
// observes, preempt the running thread and dispatch the Pick'th ready
// thread (in dispatch order: descending priority, FIFO within a level).
// Points where no Decision applies default to "continue the current
// thread". A workload is host 0.
type Decision struct {
	Host  int
	Index int
	Pick  int
}

// Schedule is an ordered set of decisions — the replayable token of one
// explored interleaving. The zero value is the empty schedule (no forced
// switches).
type Schedule struct {
	Decisions []Decision
}

// Token renders the schedule as a compact one-line string: "v1:12/1,40/0"
// (at point 12 run ready[1], at point 40 run ready[0]) when every
// decision is on host 0, and qualified by host, "f1:h0/12/1,h2/40/0",
// otherwise.
func (s Schedule) Token() string {
	fleet := false
	for _, d := range s.Decisions {
		fleet = fleet || d.Host != 0
	}
	var b strings.Builder
	if fleet {
		b.WriteString("f1:")
	} else {
		b.WriteString("v1:")
	}
	for i, d := range s.Decisions {
		if i > 0 {
			b.WriteByte(',')
		}
		if fleet {
			fmt.Fprintf(&b, "h%d/", d.Host)
		}
		fmt.Fprintf(&b, "%d/%d", d.Index, d.Pick)
	}
	return b.String()
}

// Len returns the number of forced switches.
func (s Schedule) Len() int { return len(s.Decisions) }

// ParseToken decodes a schedule token produced by Token for a target of
// the given number of hosts. Within a host, decision indices must
// strictly increase.
func ParseToken(tok string, hosts int) (Schedule, error) {
	body, fleet := strings.CutPrefix(tok, "f1:")
	if !fleet {
		var ok bool
		if body, ok = strings.CutPrefix(tok, "v1:"); !ok {
			return Schedule{}, fmt.Errorf("explore: schedule token must start with %q or %q", "v1:", "f1:")
		}
	}
	var out Schedule
	if body == "" {
		return out, nil
	}
	last := make(map[int]int)
	for _, part := range strings.Split(body, ",") {
		fields := strings.Split(part, "/")
		if fleet {
			host, ok := strings.CutPrefix(fields[0], "h")
			if !ok {
				return Schedule{}, fmt.Errorf("explore: malformed decision %q (want hH/index/pick)", part)
			}
			fields[0] = host
		} else {
			fields = append([]string{"0"}, fields...)
		}
		if len(fields) != 3 {
			return Schedule{}, fmt.Errorf("explore: malformed decision %q", part)
		}
		var n [3]int
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 {
				return Schedule{}, fmt.Errorf("explore: bad number %q in %q", f, part)
			}
			n[i] = v
		}
		d := Decision{Host: n[0], Index: n[1], Pick: n[2]}
		if d.Host >= hosts {
			return Schedule{}, fmt.Errorf("explore: decision %q names host %d, but the target has %d", part, d.Host, hosts)
		}
		if prev, ok := last[d.Host]; ok && d.Index <= prev {
			return Schedule{}, fmt.Errorf("explore: decision indices must be strictly increasing within a host (%d after %d)", d.Index, prev)
		}
		last[d.Host] = d.Index
		out.Decisions = append(out.Decisions, d)
	}
	return out, nil
}
