// Package fabric runs a virtual datacenter: N simulated hosts — each a
// complete library-threads process with its own unixkern kernel, fd
// shards, and TCP-like socket stack — joined by a latency/loss/partition
// modeled network and advanced along ONE causally-consistent virtual
// timeline. The turn rule mirrors the SMP executor's min-(clock, ID)
// discipline one level up: of all parked hosts, the one with the
// smallest (clock, hostID) runs next, and it runs alone — the entire
// fleet executes one goroutine at a time, so every run is a
// deterministic function of (configuration, seed, fault script).
//
// The synchronization protocol is conservative parallel discrete-event
// simulation. Each host's clock carries a Governor (internal/vtime) that
// parks the host whenever it wants to advance beyond its lease. There is
// no coordinator goroutine: like the paper's dispatcher, which runs on
// the thread leaving the library kernel, the decision is taken on the
// goroutine of the host that parks (or finishes). At that instant every
// other live host is already parked, so exactly one goroutine runs and
// it may freely inspect the parked hosts' clocks. One pass over the
// hosts picks the next one (smallest clock, host ID as tiebreak), which
// receives
//
//	grant = min(want, pending(h), lease(h))
//	lease(h) = max( min over other live x of clock(x) + Delay,
//	                E + Delay )   where E = min over live x of
//	                              min(want(x), pending(x))
//
// pending(x) being the earliest event already scheduled on x's wheel —
// cross-host sends materialize on the receiver's wheel at send time, so
// "in flight" messages are always visible there. The first lease term is
// sound by clock monotonicity alone: a message from x departs no earlier
// than clock(x) and arrives no earlier than clock(x)+Delay. The second
// is the fleet fast-forward: while all hosts are parked, none can act —
// send, fire a timer, finish a charge — before E, so no NEW arrival can
// land anywhere before E+Delay, and the fleet skips idle gaps in one
// grant instead of leapfrogging Delay at a time. The grant clamps to the
// host's own pending event so arrivals are processed at their true
// instants; when E is Infinity, no thread anywhere is runnable and no
// event is pending anywhere — a fleet-wide deadlock, reported with every
// blocked thread on every host.
//
// Most grants cost no goroutine switch at all. A parked host's governed
// advance lives in its Clock (vtime.Regrant), so the deciding goroutine
// applies a grant to the picked host's clock itself; if the advance asks
// again, the host parks again and the next decision follows on the same
// goroutine. Only a grant that completes an advance, or releases a host
// from the start rendezvous, resumes that host's goroutine: one channel
// handoff, or none when the host picked itself. Run only performs the
// start rendezvous (which takes the first decision) and the teardown;
// whichever host ends the run — on drain, a body error or a fleet-wide
// deadlock — signals Run to tear the fleet down.
//
// Fault injection is scripted and deterministic: per-direction link loss
// (lost data segments redeliver one RTO later), one-way partitions
// (segments held to the healing instant, or dropped forever), and host
// pauses (the clock jumps over the window at grant time; work and
// timers due inside it complete late, while the other hosts free-run
// ahead — exactly the "frozen process" a SIGSTOP'd replica exhibits).
package fabric

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// HostSpec declares one simulated host.
type HostSpec struct {
	// Name identifies the host in addresses ("name:addr"), traces, and
	// fault scripts. Must be unique and contain no ':'.
	Name string
	// Cfg is the host's thread-system configuration. Tracer and
	// ExternalEvents are managed by the fabric: the tracer is the
	// host's trace recorder, its span recorder, or both on a trace.Tee.
	Cfg core.Config
	// Body runs as the host's main thread. A non-nil error brings the
	// whole fleet down.
	Body func(h *Host) error
}

// LinkLoss drops data segments on the From->To direction with the given
// probability; each lost transmission is retried one RTO later (the
// segment eventually arrives unless a permanent partition swallows it).
type LinkLoss struct {
	From, To string
	Rate     float64
}

// LinkPartition blackholes the From->To direction for [Start, End):
// segments departing into the window are held and delivered at End.
// End == vtime.Infinity drops them forever (the classic one-way
// partition: timeouts, not errors).
type LinkPartition struct {
	From, To   string
	Start, End vtime.Time
}

// HostPause freezes a host for [From, To) of fleet time: its clock jumps
// over the window at the first grant that crosses it, so everything the
// host would have done inside the window happens late by the window's
// width while the rest of the fleet runs ahead.
type HostPause struct {
	Host     string
	From, To vtime.Time
}

// Config parameterizes a fleet.
type Config struct {
	Hosts []HostSpec
	// Net configures every host's socket stack.
	Net net.Config
	// Delay is the one-way cross-host wire latency (default 50µs). It
	// is also the conservative lookahead of the turn rule, so it must
	// be positive.
	Delay vtime.Duration
	// RTO is the redelivery delay for lost data segments (default
	// 4×Delay).
	RTO vtime.Duration
	// Seed drives the per-wire loss PRNGs.
	Seed int64
	// Loss, Partitions, Pauses are the fault script.
	Loss       []LinkLoss
	Partitions []LinkPartition
	Pauses     []HostPause
	// Drain names the hosts whose completion ends the fleet (the rest
	// are torn down); empty means run until every host completes.
	Drain []string
	// Trace attaches a per-host trace recorder to every host.
	Trace bool
	// Obs configures the fleet observability plane (spans, rollups,
	// watchdogs — see obs.go). The zero value disables it entirely.
	Obs ObsConfig
}

// hostKill unwinds a host goroutine blocked in Wait during teardown.
type hostKill struct{}

// Host is one simulated machine of the fleet.
type Host struct {
	ID   int
	Name string
	Sys  *core.System
	IO   *io.IO

	f    *Fabric
	spec HostSpec
	rec  *trace.Recorder

	// grantCh resumes the host's goroutine once a grant completes its
	// advance or releases it from the start rendezvous; true tears the
	// host down instead.
	grantCh chan bool

	// Decision-side view: written as the host parks, read by whichever
	// goroutine takes the next decision (touched only while the host is
	// parked or before it starts). Every live host is parked whenever a
	// decision runs, so no parked flag is needed. eff is the earliest
	// instant the host can act: its want, lowered by the earliest event
	// on its wheel — computed at park, and lowered again by every wire
	// arrival landed on it while it stays parked. released marks a host
	// out of the start rendezvous; killed a host torn down by killAll.
	now, want, eff vtime.Time
	released       bool
	done           bool
	killed         bool
	pauses         []HostPause
	pauseIdx       int
	bodyErr        error
}

// TraceEvents returns the host's recorded trace (Config.Trace only).
func (h *Host) TraceEvents() []core.TraceEvent {
	if h.rec == nil {
		return nil
	}
	return h.rec.Events
}

// hostGov adapts the turn protocol to vtime.Governor: an ask parks the
// host and takes the turn decisions on the asking goroutine. Unless a
// grant completes the host's own advance there, it blocks until another
// host's decisions complete it.
type hostGov struct{ h *Host }

func (g *hostGov) Wait(now, want vtime.Time) {
	h := g.h
	h.f.park(h, now, want)
	if !h.f.handOff(h) {
		h.sleep()
	}
}

// sleep blocks the host's goroutine until the fabric wakes it.
func (h *Host) sleep() {
	if kill := <-h.grantCh; kill {
		panic(hostKill{})
	}
}

// Fabric is one fleet run.
type Fabric struct {
	cfg    Config
	hosts  []*Host
	byName map[string]*Host
	wires  map[[2]int]*wire
	// startCh carries the start-rendezvous parks; endCh is signalled once
	// by the host that ends the run; exitCh by each host killAll unwinds.
	startCh chan *Host
	endCh   chan struct{}
	exitCh  chan struct{}

	nLive int
	err   error
	fp    uint64 // FNV-1a over the grant/done stream
	flows uint64
	ran   bool
	obs   *fleetObs // observability plane; nil when disabled

	// beforeDecide, when set (tests only), runs at every turn decision
	// with every live host parked.
	beforeDecide func()
}

// New builds a fleet. Host bodies do not start until Run.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Hosts) == 0 {
		return nil, errors.New("fabric: no hosts")
	}
	if cfg.Delay == 0 {
		cfg.Delay = 50 * vtime.Microsecond
	}
	if cfg.Delay <= 0 {
		return nil, errors.New("fabric: Delay must be positive")
	}
	if cfg.RTO == 0 {
		cfg.RTO = 4 * cfg.Delay
	}
	f := &Fabric{
		cfg:     cfg,
		byName:  make(map[string]*Host),
		wires:   make(map[[2]int]*wire),
		startCh: make(chan *Host),
		endCh:   make(chan struct{}),
		exitCh:  make(chan struct{}),
		fp:      fnvOffset,
	}
	if cfg.Obs.enabled() {
		f.obs = newFleetObs(cfg.Obs, len(cfg.Hosts))
	}
	for i, spec := range cfg.Hosts {
		if strings.Contains(spec.Name, ":") || spec.Name == "" {
			return nil, fmt.Errorf("fabric: bad host name %q", spec.Name)
		}
		if _, dup := f.byName[spec.Name]; dup {
			return nil, fmt.Errorf("fabric: duplicate host %q", spec.Name)
		}
		h := &Host{ID: i, Name: spec.Name, f: f, spec: spec, grantCh: make(chan bool)}
		hcfg := spec.Cfg
		hcfg.ExternalEvents = true
		if cfg.Trace {
			h.rec = trace.New()
			hcfg.Tracer = h.rec
		}
		var spanRec *obs.Recorder
		if f.obs != nil && cfg.Obs.Spans {
			spanRec = obs.NewRecorder(i)
			f.obs.recs = append(f.obs.recs, spanRec)
			if h.rec != nil {
				hcfg.Tracer = trace.Tee{h.rec, spanRec}
			} else {
				hcfg.Tracer = spanRec
			}
		}
		h.Sys = core.New(hcfg)
		h.IO = io.New(h.Sys, cfg.Net)
		h.IO.Stack().SetRouter(&hostRouter{h: h})
		h.Sys.Clock().SetGovernor(&hostGov{h: h})
		if spanRec != nil {
			h.IO.SetSpans(spanRec)
		}
		f.hosts = append(f.hosts, h)
		f.byName[spec.Name] = h
	}
	for _, p := range cfg.Pauses {
		h := f.byName[p.Host]
		if h == nil {
			return nil, fmt.Errorf("fabric: pause names unknown host %q", p.Host)
		}
		if p.To <= p.From {
			return nil, fmt.Errorf("fabric: empty pause window on %q", p.Host)
		}
		h.pauses = append(h.pauses, p)
	}
	for _, h := range f.hosts {
		sort.Slice(h.pauses, func(a, b int) bool { return h.pauses[a].From < h.pauses[b].From })
	}
	for _, d := range cfg.Drain {
		if f.byName[d] == nil {
			return nil, fmt.Errorf("fabric: drain names unknown host %q", d)
		}
	}
	// One wire per ordered host pair, lazily realized here so the loss
	// PRNG seeds and partition windows are fixed up front.
	for i := range f.hosts {
		for j := range f.hosts {
			if i == j {
				continue
			}
			w := &wire{
				delay: cfg.Delay,
				rto:   cfg.RTO,
				prng:  mixSeed(uint64(cfg.Seed), uint64(i), uint64(j)),
				src:   i,
				dst:   j,
				to:    f.hosts[j],
				obs:   f.obs,
			}
			for _, l := range cfg.Loss {
				if l.From == f.hosts[i].Name && l.To == f.hosts[j].Name {
					w.lossRate = l.Rate
				}
			}
			for _, p := range cfg.Partitions {
				if p.From == f.hosts[i].Name && p.To == f.hosts[j].Name {
					w.parts = append(w.parts, partWindow{from: p.Start, to: p.End})
				}
			}
			sort.Slice(w.parts, func(a, b int) bool { return w.parts[a].from < w.parts[b].from })
			f.wires[[2]int{i, j}] = w
		}
	}
	return f, nil
}

// Host returns a host by name (nil if unknown).
func (f *Fabric) Host(name string) *Host { return f.byName[name] }

// Hosts returns the fleet's hosts in ID order.
func (f *Fabric) Hosts() []*Host { return f.hosts }

// Fingerprint returns the schedule fingerprint accumulated over every
// turn decision of the run: two runs of the same fleet are equivalent
// iff their fingerprints (and per-host traces) match.
func (f *Fabric) Fingerprint() string { return fmt.Sprintf("%016x", f.fp) }

// Run executes the fleet to completion and returns the first error (a
// host body failure, or a fleet-wide deadlock). It may be called once.
// Run takes no part in the turns after the first: it waits at the start
// rendezvous, releases the first host, and then sleeps until the host
// that ends the run wakes it for the teardown.
func (f *Fabric) Run() error {
	if f.ran {
		return errors.New("fabric: Run called twice")
	}
	f.ran = true
	f.nLive = len(f.hosts)
	for _, h := range f.hosts {
		go h.run()
	}
	// Start rendezvous: every host parks its t=0 ask concurrently. The
	// parks are keyed by host, and nothing is decided until all arrive.
	for range f.hosts {
		f.park(<-f.startCh, 0, 0)
	}
	if h, _, _ := f.decide(); h != nil {
		f.wake(h)
		<-f.endCh
	}
	f.killAll()
	return f.err
}

// park records h's ask to advance from now to want, and caches the
// earliest instant it can act. Called on the goroutine that holds the
// fleet's single turn: h's own as it asks, the deciding one as a grant
// runs h's advance to its next ask, or Run's at the start rendezvous.
func (f *Fabric) park(h *Host, now, want vtime.Time) {
	h.now, h.want, h.eff = now, want, want
	if at, ok := h.Sys.Clock().NextExpiry(); ok && at < want {
		h.eff = at
	}
	if f.obs != nil {
		f.obs.onPark(h, now)
	}
}

// handOff passes the turn on from self, which has just parked (or, when
// nil, finished). It takes turn decisions until one must resume a host's
// goroutine. A grant to a released host is applied right here: Regrant
// runs the host's advance on, and if the advance asks again, the host
// parks and the next decision follows on this goroutine. A grant that
// completes an advance resumes its host — self by returning true, any
// other host through its grantCh, as does a release from the start
// rendezvous. When the run is over, handOff signals Run to tear the
// fleet down instead.
func (f *Fabric) handOff(self *Host) bool {
	for {
		h, grant, lease := f.decide()
		if h == nil {
			f.endCh <- struct{}{}
			return false
		}
		if h.released {
			c := h.Sys.Clock()
			if want, ask := c.Regrant(grant, lease); ask {
				f.park(h, c.Now(), want)
				continue
			}
		}
		if h == self {
			return true
		}
		f.wake(h)
		return false
	}
}

// wake resumes h's goroutine after a grant completed its advance or
// released it from the start rendezvous.
func (f *Fabric) wake(h *Host) {
	h.released = true
	if f.obs != nil {
		f.obs.grants[h.ID].Wakes++
	}
	h.grantCh <- false
}

// run is one host's goroutine: execute the body under the thread system,
// then record the completion and either end the run or pass the turn
// on. A teardown kill unwinds through here and reports to killAll.
func (h *Host) run() {
	var err error
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(hostKill); !ok {
				panic(r)
			}
		}
		f := h.f
		if h.killed {
			f.exitCh <- struct{}{}
			return
		}
		h.done = true
		f.nLive--
		f.mix(uint64(h.ID), doneMark, 0)
		if err != nil && f.err == nil {
			f.err = fmt.Errorf("host %s: %w", h.Name, err)
		}
		if f.err != nil || f.drained() || f.nLive == 0 {
			f.endCh <- struct{}{}
			return
		}
		f.handOff(nil)
	}()
	// Start rendezvous: park once at t=0 before the body runs, so host
	// bodies execute strictly one at a time from the very first instant
	// (want == now marks a host that may act immediately once released;
	// the grant values are not applied to the clock).
	h.f.startCh <- h
	h.sleep()
	err = h.Sys.Run(func() {
		if e := h.spec.Body(h); e != nil {
			h.bodyErr = e
		}
	})
	if err == nil {
		err = h.bodyErr
	}
}

// decide takes one turn decision with every live host parked, in one
// pass over the hosts. It finds E, the earliest instant anything can
// happen anywhere in the fleet; the host with the smallest (clock, ID),
// which runs next; and the smallest clock among the others, which
// bounds its lease. It returns the picked host with its grant and
// lease, or, when E is Infinity and nothing can ever happen again,
// records the fleet-wide deadlock and returns a nil host.
func (f *Fabric) decide() (h *Host, grant, lease vtime.Time) {
	if f.beforeDecide != nil {
		f.beforeDecide()
	}
	e, others := vtime.Infinity, vtime.Infinity
	for _, x := range f.hosts {
		if x.done {
			continue
		}
		if x.eff < e {
			e = x.eff
		}
		switch {
		case h == nil:
			h = x
		case x.now < h.now:
			others, h = h.now, x
		case x.now < others:
			others = x.now
		}
	}
	if e == vtime.Infinity {
		f.err = errors.New(f.deadlockReport())
		return nil, 0, 0
	}
	if f.obs != nil {
		f.obs.sampleAt(f, e)
		f.obs.checkWaitCycle(f)
	}
	grant, lease = f.grantFor(h, e, others)
	f.mix(uint64(h.ID), uint64(h.want), uint64(grant))
	if f.obs != nil {
		f.obs.onGrant(f, h, grant)
	}
	return h, grant, lease
}

// grantFor computes the granted frontier and lease for h, applying any
// pause window the grant crosses. e is the fleet-wide next-action bound
// and others the smallest clock among the other live hosts (Infinity
// when h is the only one).
func (f *Fabric) grantFor(h *Host, e, others vtime.Time) (grant, lease vtime.Time) {
	// No other host's message departs before its clock, so none lands
	// before that clock plus Delay.
	lease = satAdd(others, f.cfg.Delay)
	// Fleet fast-forward: no host acts before e, so no new arrival can
	// land anywhere before e+Delay.
	if eb := satAdd(e, f.cfg.Delay); eb > lease {
		lease = eb
	}
	if lease == vtime.Infinity {
		// Keep the lease finite so an idle host still asks (and the
		// fleet can detect deadlock) instead of free-running to the end
		// of time. Only reachable with a single live host.
		lease = vtime.Infinity - 1
	}
	grant = h.want
	if lease < grant {
		grant = lease
	}
	// Clamp to the host's own earliest pending event so arrivals are
	// processed at their true instants, not wherever the lease happens
	// to lie. eff is that event whenever it lies below the want. An
	// already-due event (eff <= now — possible when an arrival raced the
	// park at the same instant, or after a pause jump) cannot clamp:
	// grants must move the clock, and the host polls it on wake.
	if h.eff > h.now && h.eff < grant {
		grant = h.eff
	}
	// Pause windows: a grant crossing a window's start jumps over it —
	// the host is frozen for the width of the window, so whatever it
	// was about to do completes that much later.
	for h.pauseIdx < len(h.pauses) {
		w := h.pauses[h.pauseIdx]
		from := w.From
		if h.now > from {
			from = h.now
		}
		if w.To <= from {
			h.pauseIdx++
			continue
		}
		if grant <= from {
			break
		}
		grant = satAdd(grant, vtime.Duration(w.To-from))
		h.pauseIdx++
	}
	if lease < grant {
		lease = grant
	}
	return grant, lease
}

func (f *Fabric) deadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet deadlock: all %d live hosts idle with nothing pending\n", f.nLive)
	for _, h := range f.hosts {
		if h.done {
			continue
		}
		fmt.Fprintf(&b, "host %s: %s", h.Name, h.Sys.BlockedReport())
	}
	return b.String()
}

// drained reports whether every host named in Drain has completed.
func (f *Fabric) drained() bool {
	if len(f.cfg.Drain) == 0 {
		return false
	}
	for _, d := range f.cfg.Drain {
		if !f.byName[d].done {
			return false
		}
	}
	return true
}

// killAll tears down every live host: first Stop releases the host's
// parked threads and lets its Run return, then the kill unwinds the one
// goroutine blocked in Wait (or in the start rendezvous). Each
// killed host reports its exit exactly once, consumed here, so Run
// returns with no goroutine still talking to the fabric.
func (f *Fabric) killAll() {
	reason := f.err
	if reason == nil {
		reason = errors.New("fabric: fleet drained")
	}
	for _, h := range f.hosts {
		if h.done {
			continue
		}
		h.killed = true
		h.Sys.Stop(reason)
		h.grantCh <- true
		<-f.exitCh
		h.done = true
	}
	if f.obs != nil {
		f.obs.teardown(f)
	}
}

// FNV-1a over the fleet's decision stream.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	doneMark  = 0x646f6e65 // "done"
)

// fnvPow[k] is fnvPrime^k. FNV-1a over a zero byte is a bare multiply
// by the prime (the xor is a no-op), so k zero bytes are one multiply
// by fnvPow[k].
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnvWord folds w's eight little-endian bytes into h: a round per byte
// up to the highest nonzero one, then one multiply for the zero bytes
// above it.
func fnvWord(h, w uint64) uint64 {
	n := (bits.Len64(w) + 7) / 8
	for i := 0; i < n; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h * fnvPow[8-n]
}

func (f *Fabric) mix(a, b, c uint64) {
	f.fp = fnvWord(fnvWord(fnvWord(f.fp, a), b), c)
}

func mixSeed(words ...uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range words {
		h = fnvWord(h, w)
	}
	if h == 0 {
		h = fnvOffset
	}
	return h
}

func satAdd(t vtime.Time, d vtime.Duration) vtime.Time {
	if d < 0 {
		panic("fabric: negative duration")
	}
	if t > vtime.Infinity-vtime.Time(d) {
		return vtime.Infinity
	}
	return t.Add(d)
}
