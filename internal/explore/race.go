package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Happens-before + lockset race checking over trace events. The core
// stamps every event at its charge boundary with the virtual time; the
// checker rebuilds the partial order from the synchronization events —
// program order, mutex release→acquire (including direct ownership
// grants), fork/join edges and, across a fleet, message delivery — as
// vector clocks, and tracks the lockset
// held around every annotated access (NoteRead/NoteWrite). Two accesses
// to one location race when they come from different threads, at least
// one writes, and neither happens before the other; the lockset verdict
// (no common mutex) is reported alongside as the classic Eraser-style
// corroboration.

// AccessRef identifies one annotated access in a report.
type AccessRef struct {
	Thread string
	Write  bool
	At     vtime.Time
}

func (a AccessRef) op() string {
	if a.Write {
		return "write"
	}
	return "read"
}

// Race is one detected unsynchronized conflicting pair.
type Race struct {
	Loc           string
	First, Second AccessRef
	// LocksetEmpty reports that the two accesses shared no mutex — the
	// lockset discipline was violated as well.
	LocksetEmpty bool
}

// String renders the race in one line.
func (r Race) String() string {
	note := "common lock held"
	if r.LocksetEmpty {
		note = "no common lock"
	}
	return fmt.Sprintf("race on %q: %s by %s (t=%v) || %s by %s (t=%v) [%s]",
		r.Loc, r.First.op(), r.First.Thread, r.First.At,
		r.Second.op(), r.Second.Thread, r.Second.At, note)
}

// access is the checker's internal record of one annotated access.
type access struct {
	tid   int
	name  string
	write bool
	at    vtime.Time
	vc    []int32
	locks map[*core.Mutex]bool
}

// hostThread keys a thread across a fleet: thread IDs are per host.
type hostThread struct {
	host int
	id   core.ThreadID
}

// flowSnap is the sender's clock when a transmission started at
// cumulative offset start (-1 denotes the connection handshake).
type flowSnap struct {
	start int64
	vc    []int32
}

// flowChan accumulates one flow direction's transmissions.
type flowChan struct {
	lastCum int64
	snaps   []flowSnap
}

// raceChecker accumulates per-thread vector clocks and locksets.
type raceChecker struct {
	hosts    []HostTrace
	tids     map[hostThread]int
	names    []string
	vcs      [][]int32
	locksets []map[*core.Mutex]bool
	mutexVC  map[*core.Mutex][]int32
	granted  map[*core.Mutex]int // mutex → tid granted since the last unlock
	flows    map[string]*flowChan
	accesses map[string][]access
	races    []Race
	seen     map[string]bool // dedup key: loc + thread pair
}

const maxTrackedAccesses = 1 << 14

// CheckRaces scans a run's per-host traces and returns the detected
// races, one per (location, thread pair), in detection order.
//
// The traces are merged into one linearization ordered by (timestamp,
// host, position) — valid because every host is stamped on the one
// virtual timeline and cross-host wire latency is strictly positive, so
// every send is stamped before its receive. Threads are qualified by
// host name when the host has one; access locations are deliberately
// not: a fleet may model a logically shared datum replicated across
// hosts, and two unordered conflicting accesses to it race unless a
// message chain orders them. That chain is the one edge family only
// remote connections produce: the I/O jacket stamps each transmission
// with its flow-direction label and cumulative byte count ("f7>" /
// xmit 256), the checker records the sender's clock at each one and
// joins it into any reader that has consumed bytes from it.
func CheckRaces(hosts ...HostTrace) []Race {
	c := &raceChecker{
		hosts:    hosts,
		tids:     make(map[hostThread]int),
		mutexVC:  make(map[*core.Mutex][]int32),
		granted:  make(map[*core.Mutex]int),
		flows:    make(map[string]*flowChan),
		accesses: make(map[string][]access),
		seen:     make(map[string]bool),
	}
	// K-way merge. Strict < keeps the lowest host first on timestamp
	// ties, so the linearization is total and deterministic.
	idx := make([]int, len(hosts))
	for {
		best := -1
		for h := range hosts {
			if idx[h] < len(hosts[h].Events) && (best < 0 || hosts[h].Events[idx[h]].At < hosts[best].Events[idx[best]].At) {
				best = h
			}
		}
		if best < 0 {
			return c.races
		}
		c.step(best, &hosts[best].Events[idx[best]])
		idx[best]++
	}
}

// tidOf interns a thread, growing every vector clock to cover it. A
// thread's own component starts at 1, so its first access is not
// mistaken for one every other thread has already seen.
func (c *raceChecker) tidOf(host int, id core.ThreadID, name string) int {
	key := hostThread{host, id}
	if t, ok := c.tids[key]; ok {
		return t
	}
	t := len(c.names)
	c.tids[key] = t
	if name == "" {
		name = "thread#" + strconv.Itoa(int(id))
	}
	if h := c.hosts[host].Name; h != "" {
		name = h + "/" + name
	}
	c.names = append(c.names, name)
	c.vcs = append(c.vcs, make([]int32, t+1))
	c.vcs[t][t] = 1
	c.locksets = append(c.locksets, make(map[*core.Mutex]bool))
	return t
}

// at reads component i of a clock (clocks grow lazily).
func at(vc []int32, i int) int32 {
	if i < len(vc) {
		return vc[i]
	}
	return 0
}

// joinInto merges src into dst (dst grows as needed) and returns dst.
func joinInto(dst, src []int32) []int32 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
	return dst
}

func (c *raceChecker) step(host int, ev *core.TraceEvent) {
	if ev.Thread == nil {
		return
	}
	t := c.tidOf(host, ev.Thread.ID(), ev.Thread.Name())
	switch ev.Kind {
	case core.EvMutex:
		m := ev.Mutex
		switch ev.Op {
		case core.OpLock, core.OpRelock, core.OpGrant:
			// A grant is a direct ownership transfer: the waiter
			// acquires here, but the grant is traced *before* the
			// release, so the release edge is completed when the
			// matching unlock arrives (see OpUnlock).
			c.vcs[t] = joinInto(c.vcs[t], c.mutexVC[m])
			c.locksets[t][m] = true
			if ev.Op == core.OpGrant {
				c.granted[m] = t
			}
		case core.OpUnlock:
			delete(c.locksets[t], m)
			c.mutexVC[m] = joinInto(c.mutexVC[m], c.vcs[t])
			if w, ok := c.granted[m]; ok {
				c.vcs[w] = joinInto(c.vcs[w], c.mutexVC[m])
				delete(c.granted, m)
			}
			c.tick(t)
		}
	case core.EvFork:
		w := c.tidOf(host, ev.Peer.ID(), ev.Obj)
		c.vcs[w] = joinInto(c.vcs[w], c.vcs[t])
		c.tick(t)
	case core.EvJoin:
		w := c.tidOf(host, ev.Peer.ID(), ev.Obj)
		c.vcs[t] = joinInto(c.vcs[t], c.vcs[w])
	case core.EvNet:
		cum, err := strconv.ParseInt(ev.Detail, 10, 64)
		if err != nil || (ev.Arg != "xmit" && ev.Arg != "recv") {
			return
		}
		ch := c.flows[ev.Obj]
		if ch == nil {
			ch = &flowChan{lastCum: -1}
			c.flows[ev.Obj] = ch
		}
		switch ev.Arg {
		case "xmit":
			ch.snaps = append(ch.snaps, flowSnap{start: ch.lastCum, vc: append([]int32(nil), c.vcs[t]...)})
			ch.lastCum = cum
			c.tick(t)
		case "recv":
			for _, s := range ch.snaps {
				// The reader has consumed at least one byte of (or the
				// handshake preceding) this transmission: the sender's
				// clock at the send happens before the read.
				if s.start < cum {
					c.vcs[t] = joinInto(c.vcs[t], s.vc)
				}
			}
		}
	case core.EvAccess:
		c.onAccess(t, ev)
	}
}

// tick advances a thread's own component after a release-style event.
func (c *raceChecker) tick(t int) {
	for len(c.vcs[t]) <= t {
		c.vcs[t] = append(c.vcs[t], 0)
	}
	c.vcs[t][t]++
}

func (c *raceChecker) onAccess(t int, ev *core.TraceEvent) {
	loc := ev.Obj
	cur := access{
		tid:   t,
		name:  c.names[t],
		write: ev.Arg == "write",
		at:    ev.At,
		vc:    append([]int32(nil), c.vcs[t]...),
		locks: copySet(c.locksets[t]),
	}
	for _, prev := range c.accesses[loc] {
		if prev.tid == t || (!prev.write && !cur.write) {
			continue
		}
		// prev happens before cur iff cur's clock has seen prev's
		// own-component value at the time of the access.
		if at(prev.vc, prev.tid) <= at(cur.vc, prev.tid) {
			continue
		}
		key := loc + "\x00" + prev.name + "\x00" + cur.name
		if c.seen[key] {
			continue
		}
		c.seen[key] = true
		c.races = append(c.races, Race{
			Loc:          loc,
			First:        AccessRef{Thread: prev.name, Write: prev.write, At: prev.at},
			Second:       AccessRef{Thread: cur.name, Write: cur.write, At: cur.at},
			LocksetEmpty: disjoint(prev.locks, cur.locks),
		})
	}
	if len(c.accesses[loc]) < maxTrackedAccesses {
		c.accesses[loc] = append(c.accesses[loc], cur)
	}
	c.tick(t)
}

func copySet(s map[*core.Mutex]bool) map[*core.Mutex]bool {
	out := make(map[*core.Mutex]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func disjoint(a, b map[*core.Mutex]bool) bool {
	for k := range a {
		if b[k] {
			return false
		}
	}
	return true
}

// FormatRaces renders a race report, stable across runs.
func FormatRaces(races []Race) string {
	if len(races) == 0 {
		return "no races detected\n"
	}
	lines := make([]string, len(races))
	for i, r := range races {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "%d race(s) detected:\n", len(races))
	for _, l := range lines {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}
