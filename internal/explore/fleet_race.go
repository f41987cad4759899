package explore

import (
	"strconv"

	"pthreads/internal/core"
)

// Fleet-wide race checking. A virtual-datacenter run produces one trace
// per host, all stamped on the same fleet-global virtual timeline. The
// checker merges them into a single linearization — ordering by
// (timestamp, host, position), valid because cross-host wire latency is
// strictly positive, so every send is stamped before its receive — and
// rebuilds happens-before with host-qualified threads and mutexes plus
// one extra edge family the single-host checker does not have:
// cross-host message edges. The I/O jacket stamps every remote
// connection operation with its flow-direction label and cumulative byte
// count ("f7>" / xmit 256); the checker records the sender's vector
// clock at each transmission and joins it into any reader that has
// consumed bytes from it. Access locations (NoteRead/NoteWrite) are
// deliberately NOT host-qualified: a workload may model a logically
// shared datum replicated across hosts, and two unordered conflicting
// accesses to it race unless a message chain orders them.

// fleetTID keys a thread by (host, thread id).
type fleetTID struct {
	host int32
	id   int32
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

type fleetChecker struct {
	rc    *raceChecker
	tids  map[fleetTID]int
	chans map[string]*flowChan
}

// CheckFleetRaces scans a fleet's per-host traces (parallel to
// hostNames) and returns the detected races across the whole
// datacenter, in detection order.
func CheckFleetRaces(perHost [][]core.TraceEvent, hostNames []string) []Race {
	fc := &fleetChecker{
		rc: &raceChecker{
			tids:     make(map[core.ThreadID]int),
			mutexVC:  make(map[string][]int32),
			granted:  make(map[string]int),
			accesses: make(map[string][]access),
			seen:     make(map[string]bool),
		},
		tids:  make(map[fleetTID]int),
		chans: make(map[string]*flowChan),
	}
	// K-way merge by (At, host, position). Strict < keeps the lowest
	// host first on timestamp ties, so the linearization is total and
	// deterministic.
	idx := make([]int, len(perHost))
	for {
		best := -1
		for h := range perHost {
			if idx[h] >= len(perHost[h]) {
				continue
			}
			if best < 0 || perHost[h][idx[h]].At < perHost[best][idx[best]].At {
				best = h
			}
		}
		if best < 0 {
			break
		}
		fc.step(best, hostNames[best], &perHost[best][idx[best]])
		idx[best]++
	}
	return fc.rc.races
}

// tidOf interns a host-qualified thread.
func (fc *fleetChecker) tidOf(host int, hostName string, id core.ThreadID, name string) int {
	key := fleetTID{host: int32(host), id: int32(id)}
	if t, ok := fc.tids[key]; ok {
		return t
	}
	c := fc.rc
	t := len(c.names)
	fc.tids[key] = t
	if name == "" {
		name = "thread#" + strconv.Itoa(int(id))
	}
	c.names = append(c.names, hostName+"/"+name)
	c.vcs = append(c.vcs, make([]int32, t+1))
	c.locksets = append(c.locksets, make(map[string]bool))
	return t
}

func (fc *fleetChecker) chanOf(label string) *flowChan {
	ch := fc.chans[label]
	if ch == nil {
		ch = &flowChan{lastCum: -1}
		fc.chans[label] = ch
	}
	return ch
}

// step is the fleet twin of raceChecker.step: threads, mutexes, and
// fork/join targets are qualified by host; access locations stay global;
// EvNet xmit/recv events become cross-host message edges.
func (fc *fleetChecker) step(host int, hostName string, ev *core.TraceEvent) {
	if ev.Thread == nil {
		return
	}
	c := fc.rc
	t := fc.tidOf(host, hostName, ev.Thread.ID(), ev.Thread.Name())
	switch ev.Kind {
	case core.EvMutex:
		obj := hostName + "/" + ev.Obj
		switch ev.Arg {
		case "lock":
			c.vcs[t] = joinInto(c.vcs[t], c.mutexVC[obj])
			c.locksets[t][obj] = true
		case "grant":
			c.vcs[t] = joinInto(c.vcs[t], c.mutexVC[obj])
			c.locksets[t][obj] = true
			c.granted[obj] = t
		case "unlock":
			delete(c.locksets[t], obj)
			c.mutexVC[obj] = joinInto(c.mutexVC[obj], c.vcs[t])
			if w, ok := c.granted[obj]; ok {
				c.vcs[w] = joinInto(c.vcs[w], c.mutexVC[obj])
				delete(c.granted, obj)
			}
			c.tick(t)
		}
	case core.EvFork:
		w := fc.tidOf(host, hostName, ev.Peer.ID(), ev.Obj)
		c.vcs[w] = joinInto(c.vcs[w], c.vcs[t])
		c.tick(t)
	case core.EvJoin:
		w := fc.tidOf(host, hostName, ev.Peer.ID(), ev.Obj)
		c.vcs[t] = joinInto(c.vcs[t], c.vcs[w])
	case core.EvNet:
		switch ev.Arg {
		case "xmit":
			cum, err := strconv.ParseInt(ev.Detail, 10, 64)
			if err != nil {
				return
			}
			ch := fc.chanOf(ev.Obj)
			ch.snaps = append(ch.snaps, flowSnap{
				start: ch.lastCum,
				vc:    append([]int32(nil), c.vcs[t]...),
			})
			ch.lastCum = cum
			c.tick(t)
		case "recv":
			r, err := strconv.ParseInt(ev.Detail, 10, 64)
			if err != nil {
				return
			}
			ch := fc.chanOf(ev.Obj)
			for _, s := range ch.snaps {
				// The reader has consumed at least one byte of (or the
				// handshake preceding) this transmission: the sender's
				// clock at the send happens before the read.
				if s.start < r {
					c.vcs[t] = joinInto(c.vcs[t], s.vc)
				}
			}
		}
	case core.EvAccess:
		c.onAccess(t, ev)
	}
}
