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
// grants), and fork/join edges — as vector clocks, and tracks the lockset
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
	locks map[string]bool
}

// raceChecker accumulates per-thread vector clocks and locksets.
type raceChecker struct {
	tids     map[core.ThreadID]int
	names    []string
	vcs      [][]int32
	locksets []map[string]bool
	mutexVC  map[string][]int32
	granted  map[string]int // mutex → tid granted since the last unlock
	accesses map[string][]access
	races    []Race
	seen     map[string]bool // dedup key: loc + thread pair
}

const maxTrackedAccesses = 1 << 14

// CheckRaces scans a run's trace and returns the detected races, one per
// (location, thread pair), in detection order.
func CheckRaces(events []core.TraceEvent) []Race {
	c := &raceChecker{
		tids:     make(map[core.ThreadID]int),
		mutexVC:  make(map[string][]int32),
		granted:  make(map[string]int),
		accesses: make(map[string][]access),
		seen:     make(map[string]bool),
	}
	for i := range events {
		c.step(&events[i])
	}
	return c.races
}

// tidOf interns a thread, growing every vector clock to cover it.
func (c *raceChecker) tidOf(id core.ThreadID, name string) int {
	if t, ok := c.tids[id]; ok {
		return t
	}
	t := len(c.names)
	c.tids[id] = t
	if name == "" {
		name = "thread#" + strconv.Itoa(int(id))
	}
	c.names = append(c.names, name)
	c.vcs = append(c.vcs, make([]int32, t+1))
	c.locksets = append(c.locksets, make(map[string]bool))
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

func threadName(ev *core.TraceEvent) string {
	if ev.Thread == nil {
		return ""
	}
	return ev.Thread.Name()
}

func (c *raceChecker) step(ev *core.TraceEvent) {
	if ev.Thread == nil {
		return
	}
	t := c.tidOf(ev.Thread.ID(), threadName(ev))
	switch ev.Kind {
	case core.EvMutex:
		switch ev.Arg {
		case "lock":
			c.vcs[t] = joinInto(c.vcs[t], c.mutexVC[ev.Obj])
			c.locksets[t][ev.Obj] = true
		case "grant":
			// Direct ownership transfer: the waiter acquires here, but
			// in the unlock path the grant is traced *before* the
			// release event, so the release edge is completed when the
			// matching unlock arrives (see the "unlock" case).
			c.vcs[t] = joinInto(c.vcs[t], c.mutexVC[ev.Obj])
			c.locksets[t][ev.Obj] = true
			c.granted[ev.Obj] = t
		case "unlock":
			delete(c.locksets[t], ev.Obj)
			c.mutexVC[ev.Obj] = joinInto(c.mutexVC[ev.Obj], c.vcs[t])
			if w, ok := c.granted[ev.Obj]; ok {
				c.vcs[w] = joinInto(c.vcs[w], c.mutexVC[ev.Obj])
				delete(c.granted, ev.Obj)
			}
			c.tick(t)
		}
	case core.EvFork:
		w := c.tidOf(ev.Peer.ID(), ev.Obj)
		c.vcs[w] = joinInto(c.vcs[w], c.vcs[t])
		c.tick(t)
	case core.EvJoin:
		w := c.tidOf(ev.Peer.ID(), ev.Obj)
		c.vcs[t] = joinInto(c.vcs[t], c.vcs[w])
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

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func disjoint(a, b map[string]bool) bool {
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
