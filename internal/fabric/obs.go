// The fleet observability plane (DESIGN.md §14): distributed spans
// stitched across hosts by wire-message piggybacking, per-host wire and
// grant counters rolled up into fleet snapshots at virtual-time
// intervals, and watchdogs over the turn decisions' own vantage point —
// grant starvation, oversized single-turn advances, and cross-host wait
// cycles among fully idle hosts. Everything here observes and never
// charges: no virtual clock moves because observability is on, so every
// schedule, fingerprint, and golden artifact is byte-identical with the
// plane enabled or disabled, and the plane's own output is byte-identical
// across runs (gated by verify.sh with a double-run cmp).
package fabric

import (
	"fmt"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/metrics"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/vtime"
)

// ObsConfig enables the observability plane. The zero value disables
// everything (the fabric then holds no plane state at all).
type ObsConfig struct {
	// Spans records a distributed span per jacket call on every host and
	// piggybacks trace context on every wire message.
	Spans bool
	// Rollup samples per-host gauges (run-queue depth, fd-wait
	// occupancy, clock) at Interval of fleet virtual time and
	// accumulates per-pair and fleet-wide wire-latency histograms.
	Rollup bool
	// Interval between rollup samples (default 1ms).
	Interval vtime.Duration
	// GrantStarvation fires a finding when a host's clock at grant lags
	// the fleet's maximum clock by more than this (0 = off). A paused or
	// partitioned-off host shows up here first.
	GrantStarvation vtime.Duration
	// LeaseHold fires a finding when a single turn advances one host's
	// clock by more than this (0 = off): the host held the fleet's
	// attention — a long free-run under one lease — for that long.
	LeaseHold vtime.Duration
	// WaitCycle detects cycles of hosts that are all fully idle
	// (nothing runnable, nothing pending) and fd-blocked on flows
	// terminating at each other — a subset deadlock the fleet-wide
	// check cannot see while other hosts still run.
	WaitCycle bool
}

func (c ObsConfig) enabled() bool {
	return c.Spans || c.Rollup || c.GrantStarvation > 0 || c.LeaseHold > 0 || c.WaitCycle
}

func (c ObsConfig) withDefaults() ObsConfig {
	if c.Interval <= 0 {
		c.Interval = vtime.Millisecond
	}
	return c
}

// HostWireStats counts one host's cross-host traffic, attributed to the
// sending host.
type HostWireStats struct {
	Msgs        int64 // messages handed to the wire
	Bytes       int64 // payload bytes among them
	Retransmits int64 // lost data segments redelivered one RTO later
	PartHeld    int64 // segments held to a partition's healing instant
	PartDropped int64 // segments swallowed forever
}

// HostGrantStats summarizes the turn decisions' view of one host.
type HostGrantStats struct {
	Grants int64 // turns granted
	// Wakes counts the grants that resumed the host's goroutine through
	// its channel: each completed an advance (or released the host from
	// the start rendezvous) while another host held the turn. The other
	// grants only moved the clock on and were applied by the deciding
	// goroutine, or completed an advance the host decided itself.
	Wakes   int64
	MaxLag  vtime.Duration // worst clock lag behind the fleet max at grant
	MaxTurn vtime.Duration // largest single-turn virtual advance

	// Decision-internal turn tracking.
	lastGrant vtime.Time
	granted   bool
}

// HostGauge is one host's sampled gauges.
type HostGauge struct {
	Now    vtime.Time // host clock at the sample
	Ready  int        // run-queue depth
	FDWait int        // threads suspended in fd jackets
	Done   bool       // host already completed
}

// RollupSample is one fleet-wide gauge sample.
type RollupSample struct {
	At    vtime.Time
	Hosts []HostGauge
}

// FleetFinding is one watchdog diagnosis.
type FleetFinding struct {
	Kind   string // "grant-starvation", "lease-hold", "wait-cycle"
	Host   string // primary host ("" for fleet-wide findings)
	At     vtime.Time
	Detail string
}

// fleetObs is the decision-side state of the plane. All of it is touched
// only by the goroutine holding the fleet's single turn — a host while
// it runs or takes a turn decision, or Run at the start rendezvous and
// teardown — so no locking is needed.
type fleetObs struct {
	cfg  ObsConfig
	recs []*obs.Recorder // per-host span recorders; nil unless Spans
	msgs []obs.WireMsg   // every wire message, in send order (Spans)

	wire     []HostWireStats
	grants   []HostGrantStats
	pairLat  map[[2]int]*metrics.Histogram
	fleetLat metrics.Histogram

	samples    []RollupSample
	nextSample vtime.Time

	findings   []FleetFinding
	starved    []bool
	leaseFired []bool
	flowEnds   map[uint64][2]int // flow -> (src host, dst host)
	lastStuck  uint64            // memo of the last checked stuck-set
	seenCycle  map[string]bool
}

func newFleetObs(cfg ObsConfig, nHosts int) *fleetObs {
	cfg = cfg.withDefaults()
	o := &fleetObs{
		cfg:        cfg,
		wire:       make([]HostWireStats, nHosts),
		grants:     make([]HostGrantStats, nHosts),
		pairLat:    make(map[[2]int]*metrics.Histogram),
		nextSample: vtime.Time(cfg.Interval),
		starved:    make([]bool, nHosts),
		leaseFired: make([]bool, nHosts),
		flowEnds:   make(map[uint64][2]int),
		seenCycle:  make(map[string]bool),
	}
	return o
}

// wireDelivered accounts one delivered segment.
func (o *fleetObs) wireDelivered(w *wire, dep, at vtime.Time, bytes, retries int, held bool) {
	s := &o.wire[w.src]
	s.Msgs++
	s.Bytes += int64(bytes)
	s.Retransmits += int64(retries)
	if held {
		s.PartHeld++
	}
	if o.cfg.Rollup {
		d := at.Sub(dep)
		o.fleetLat.Record(d)
		key := [2]int{w.src, w.dst}
		h := o.pairLat[key]
		if h == nil {
			h = &metrics.Histogram{}
			o.pairLat[key] = h
		}
		h.Record(d)
	}
}

// wireLost accounts a segment that never arrives.
func (o *fleetObs) wireLost(w *wire, retries int) {
	s := &o.wire[w.src]
	s.Msgs++
	s.Retransmits += int64(retries)
	s.PartDropped++
}

// onGrant runs at every turn decision, while all live hosts are
// parked: count the turn, track the host's lag behind the fleet max,
// and fire the starvation watchdog.
func (o *fleetObs) onGrant(f *Fabric, h *Host, grant vtime.Time) {
	g := &o.grants[h.ID]
	g.Grants++
	var maxNow vtime.Time
	for _, x := range f.hosts {
		if !x.done && x.now > maxNow {
			maxNow = x.now
		}
	}
	lag := maxNow.Sub(h.now)
	if lag > g.MaxLag {
		g.MaxLag = lag
	}
	if o.cfg.GrantStarvation > 0 && lag > o.cfg.GrantStarvation && !o.starved[h.ID] {
		o.starved[h.ID] = true
		o.findings = append(o.findings, FleetFinding{
			Kind: "grant-starvation", Host: h.Name, At: maxNow,
			Detail: fmt.Sprintf("clock %d lags fleet max %d by %d (threshold %d)",
				h.now, maxNow, lag, o.cfg.GrantStarvation),
		})
	}
	g.lastGrant, g.granted = grant, true
}

// onPark runs when a host parks back: the turn it just finished
// advanced its clock from the granted frontier to now.
func (o *fleetObs) onPark(h *Host, now vtime.Time) {
	g := &o.grants[h.ID]
	if !g.granted {
		return
	}
	g.granted = false
	adv := now.Sub(g.lastGrant)
	if adv < 0 {
		adv = 0
	}
	if adv > g.MaxTurn {
		g.MaxTurn = adv
	}
	if o.cfg.LeaseHold > 0 && adv > o.cfg.LeaseHold && !o.leaseFired[h.ID] {
		o.leaseFired[h.ID] = true
		o.findings = append(o.findings, FleetFinding{
			Kind: "lease-hold", Host: h.Name, At: now,
			Detail: fmt.Sprintf("one turn advanced the host by %d (threshold %d)",
				adv, o.cfg.LeaseHold),
		})
	}
}

// sampleAt takes a rollup sample when fleet time crosses the next
// boundary. Called with every live host parked, at the fleet-wide
// next-action bound e, so reading the parked hosts' systems is safe
// (each park happened-before this decision through the chain of grant
// handoffs since).
func (o *fleetObs) sampleAt(f *Fabric, e vtime.Time) {
	if !o.cfg.Rollup || e == vtime.Infinity || e < o.nextSample {
		return
	}
	s := RollupSample{At: e, Hosts: make([]HostGauge, len(f.hosts))}
	for i, h := range f.hosts {
		g := &s.Hosts[i]
		if h.done {
			g.Done = true
			continue
		}
		g.Now = h.now
		g.Ready = h.Sys.ReadyDepth()
		g.FDWait = h.Sys.FDWaitingNow()
	}
	o.samples = append(o.samples, s)
	// Next boundary strictly after e: a fleet fast-forward skips the
	// boundaries inside the jump instead of stamping them all.
	iv := uint64(o.cfg.Interval)
	o.nextSample = vtime.Time((uint64(e)/iv + 1) * iv)
}

// checkWaitCycle looks for a cycle among fully idle hosts (nothing
// runnable, nothing pending) whose fd-blocked calls wait on flows
// terminating at each other. Such a subset can never make progress on
// its own, yet the fleet-wide deadlock check stays silent while any
// other host still runs. Memoized on the stuck-set so the scan runs
// only when the set changes.
func (o *fleetObs) checkWaitCycle(f *Fabric) {
	if !o.cfg.WaitCycle {
		return
	}
	var mask uint64
	for _, h := range f.hosts {
		if !h.done && h.ID < 64 && h.eff == vtime.Infinity {
			mask |= 1 << uint(h.ID)
		}
	}
	if mask == o.lastStuck {
		return
	}
	o.lastStuck = mask
	if mask == 0 {
		return
	}
	// Wait edges: stuck host -> peer of a flow one of its threads is
	// fd-blocked on, kept only when the peer is stuck too.
	edges := make(map[int][]int)
	for _, h := range f.hosts {
		if mask&(1<<uint(h.ID)) == 0 {
			continue
		}
		for _, fl := range blockedFlows(h.Sys) {
			ends, ok := o.flowEnds[fl]
			if !ok {
				continue
			}
			peer := ends[0]
			if peer == h.ID {
				peer = ends[1]
			}
			if peer != h.ID && mask&(1<<uint(peer)) != 0 {
				edges[h.ID] = append(edges[h.ID], peer)
			}
		}
	}
	cyc := findCycle(edges)
	if cyc == nil {
		return
	}
	names := make([]string, len(cyc))
	for i, id := range cyc {
		names[i] = f.hosts[id].Name
	}
	key := strings.Join(names, ">")
	if o.seenCycle[key] {
		return
	}
	o.seenCycle[key] = true
	var maxNow vtime.Time
	for _, id := range cyc {
		if f.hosts[id].now > maxNow {
			maxNow = f.hosts[id].now
		}
	}
	o.findings = append(o.findings, FleetFinding{
		Kind: "wait-cycle", Host: names[0], At: maxNow,
		Detail: "hosts wait on each other's flows: " + strings.Join(names, " -> ") + " -> " + names[0],
	})
}

// blockedFlows returns the flows a host's threads are blocked on, in
// roster order: each thread blocked reading or writing a descriptor
// whose object is a cross-host connection contributes that
// connection's flow.
func blockedFlows(sys *core.System) []uint64 {
	var out []uint64
	for _, t := range sys.Threads() {
		fd, verb, ok := t.FDWait()
		if !ok || (verb != core.VerbRead && verb != core.VerbWrite) {
			continue
		}
		obj, _ := sys.Process().FDObject(fd)
		if c, ok := obj.(*net.Conn); ok && c.Remote() {
			out = append(out, c.Flow())
		}
	}
	return out
}

// findCycle returns one cycle in the wait digraph (vertex ids, rotated
// so the smallest id leads), or nil. Deterministic: vertices and edges
// are visited in sorted insertion order.
func findCycle(edges map[int][]int) []int {
	verts := make([]int, 0, len(edges))
	for v := range edges {
		verts = append(verts, v)
	}
	sort.Ints(verts)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int)
	var stack []int
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		stack = append(stack, v)
		for _, w := range edges[v] {
			switch color[w] {
			case gray:
				// Found: slice the stack from w's position.
				for i, x := range stack {
					if x == w {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[v] = black
		return false
	}
	for _, v := range verts {
		if color[v] == white && dfs(v) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	// Rotate the smallest id to the front for a canonical key.
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}

// teardown closes dangling spans with each host's final clock.
func (o *fleetObs) teardown(f *Fabric) {
	for i, r := range o.recs {
		if r != nil {
			r.CloseDangling(f.hosts[i].Sys.Clock().Now())
		}
	}
}

// PairLatency is one directed host pair's wire-latency histogram.
type PairLatency struct {
	Src, Dst string
	Hist     metrics.Histogram
}

// ObsReport is the assembled output of the plane for one fleet run.
type ObsReport struct {
	Hosts    []string
	Wire     []HostWireStats
	Grants   []HostGrantStats
	PairLat  []PairLatency
	FleetLat metrics.Histogram
	Interval vtime.Duration
	Samples  []RollupSample
	Findings []FleetFinding
	// Spans holds each host's recorded spans (ID order), Msgs every
	// wire message in send order; both empty unless ObsConfig.Spans.
	Spans [][]obs.Span
	Msgs  []obs.WireMsg
}

// ObsReport assembles the plane's report (nil when the plane is off).
// Call after Run.
func (f *Fabric) ObsReport() *ObsReport {
	o := f.obs
	if o == nil {
		return nil
	}
	r := &ObsReport{
		Wire:     o.wire,
		Grants:   o.grants,
		FleetLat: o.fleetLat,
		Interval: o.cfg.Interval,
		Samples:  o.samples,
		Findings: o.findings,
		Msgs:     o.msgs,
	}
	for _, h := range f.hosts {
		r.Hosts = append(r.Hosts, h.Name)
	}
	keys := make([][2]int, 0, len(o.pairLat))
	for k := range o.pairLat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		r.PairLat = append(r.PairLat, PairLatency{
			Src: f.hosts[k[0]].Name, Dst: f.hosts[k[1]].Name, Hist: *o.pairLat[k],
		})
	}
	for _, rec := range o.recs {
		if rec != nil {
			r.Spans = append(r.Spans, rec.Spans())
		}
	}
	return r
}

// Format renders the report as the deterministic text section ptreport
// -fleet prints.
func (r *ObsReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet observability (%d hosts)\n", len(r.Hosts))
	b.WriteString("\n  wire traffic (per sending host)\n")
	b.WriteString("  host        msgs    bytes  retrans  part-held  part-drop\n")
	for i, name := range r.Hosts {
		w := r.Wire[i]
		fmt.Fprintf(&b, "  %-9s %6d %8d %8d %10d %10d\n",
			name, w.Msgs, w.Bytes, w.Retransmits, w.PartHeld, w.PartDropped)
	}
	b.WriteString("\n  coordinator grants\n")
	b.WriteString("  host       grants   max-lag-vus  max-turn-vus\n")
	for i, name := range r.Hosts {
		g := r.Grants[i]
		fmt.Fprintf(&b, "  %-9s %7d %13d %13d\n", name, g.Grants, int64(g.MaxLag), int64(g.MaxTurn))
	}
	if r.FleetLat.Count > 0 {
		b.WriteString("\n  wire latency (virtual)\n")
		fmt.Fprintf(&b, "  fleet: n=%d p50=%d p99=%d max=%d\n",
			r.FleetLat.Count, int64(r.FleetLat.Quantile(0.50)),
			int64(r.FleetLat.Quantile(0.99)), int64(r.FleetLat.Max))
		for _, p := range r.PairLat {
			fmt.Fprintf(&b, "  %s->%s: n=%d p50=%d p99=%d max=%d\n",
				p.Src, p.Dst, p.Hist.Count, int64(p.Hist.Quantile(0.50)),
				int64(p.Hist.Quantile(0.99)), int64(p.Hist.Max))
		}
	}
	if len(r.Samples) > 0 {
		b.WriteString("\n  rollups\n")
		fmt.Fprintf(&b, "  %d samples at %dns intervals; per-host peaks over the run:\n",
			len(r.Samples), int64(r.Interval))
		b.WriteString("  host      max-ready  max-fdwait\n")
		for i, name := range r.Hosts {
			maxReady, maxFD := 0, 0
			for _, s := range r.Samples {
				g := s.Hosts[i]
				if g.Ready > maxReady {
					maxReady = g.Ready
				}
				if g.FDWait > maxFD {
					maxFD = g.FDWait
				}
			}
			fmt.Fprintf(&b, "  %-9s %9d %11d\n", name, maxReady, maxFD)
		}
	}
	if len(r.Spans) > 0 {
		total, traces := 0, make(map[uint64]bool)
		for _, hs := range r.Spans {
			total += len(hs)
			for _, sp := range hs {
				traces[sp.Trace] = true
			}
		}
		crossed := 0
		for _, m := range r.Msgs {
			if m.Delivered && m.Trace != 0 {
				crossed++
			}
		}
		b.WriteString("\n  spans\n")
		fmt.Fprintf(&b, "  %d spans in %d traces; %d wire messages (%d carrying trace context)\n",
			total, len(traces), len(r.Msgs), crossed)
	}
	b.WriteString("\n  watchdog findings\n")
	if len(r.Findings) == 0 {
		b.WriteString("  none\n")
	}
	for _, fd := range r.Findings {
		fmt.Fprintf(&b, "  [%s] host=%s at=%d: %s\n", fd.Kind, fd.Host, int64(fd.At), fd.Detail)
	}
	return b.String()
}

// CarrySpan implements net.SpanWire: the fabric's wires observe every
// cross-host message for the plane, minting a deterministic message id
// from the sending host's recorder and depositing the carried context
// on the receiving host's, where the next Accept/Read on the flow
// adopts it. Unreachable unless spans are enabled (the jacket only
// brackets sends with a context when a recorder is attached, and the
// recs guard below makes stray calls free).
func (w *wire) CarrySpan(flow uint64, ctx net.SpanCtx, dep, at vtime.Time, delivered bool, bytes int, kind string) {
	o := w.obs
	if o == nil || o.recs == nil {
		return
	}
	src := o.recs[w.src]
	m := obs.WireMsg{
		Msg: src.MintID(dep), Flow: flow, Src: w.src, Dst: w.dst,
		Trace: ctx.Trace, Span: ctx.Span, Dep: dep, At: at,
		Bytes: bytes, Kind: kind, Delivered: delivered,
	}
	if ctx.Span != 0 {
		if tid, ok := src.ThreadOf(ctx.Span); ok {
			m.SrcThread = tid
		}
	}
	o.msgs = append(o.msgs, m)
	if delivered && ctx.Trace != 0 {
		o.recs[w.dst].Deliver(flow, ctx.Trace, ctx.Span, m.Msg)
	}
}
