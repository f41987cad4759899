package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// spanKind names a layer boundary the traced run brackets: a call from
// the benchmark's own code into core or the io jacket, or the whole
// fabric run.
type spanKind uint8

const (
	spCreate spanKind = iota
	spJoin
	spLock
	spCondWait
	spSleep
	spRead
	spWrite
	spDial
	spAccept
	spClose
	nOpSpans    // kinds above are op spans, accounted per op
	spFabricRun = nOpSpans
)

var spanNames = [...]string{
	spCreate:    "core.create",
	spJoin:      "core.join",
	spLock:      "core.lock",
	spCondWait:  "core.cond_wait",
	spSleep:     "core.sleep",
	spRead:      "io.read",
	spWrite:     "io.write",
	spDial:      "io.dial",
	spAccept:    "io.accept",
	spClose:     "io.close",
	spFabricRun: "fabric.run",
}

// span is one recorded call. Times are host ns since the tracer's base;
// end stays 0 for a call that never returned (a thread torn down at the
// end of the run).
type span struct {
	kind       spanKind
	host       uint8
	tid        int32
	op         int64
	start, end int64
}

// interval is one sampled block of the window: its host-time extent and
// the ops completed in it.
type interval struct {
	start, end int64
	ops        int
}

// sampledBlocks is about how many blocks of ops a sampled traced run
// keeps: the window is cut into every*sampledBlocks blocks.
const sampledBlocks = 1000

// tracer keeps the traced run's spans in a buffer sized before the
// window; spans beyond its capacity are counted and dropped. Sampling is
// by op index: the ops completing in a sampled block are the sampled
// ops, and every span that starts inside the block is kept, whichever
// thread or host records it.
type tracer struct {
	base       time.Time
	ops        int  // ops in the window
	block      int  // ops per sampling block
	every      int  // one block in every is sampled
	on         bool // the current block is sampled
	blockStart int  // op index the current block began at
	curStart   int64
	spans      []span
	dropped    int
	ivs        []interval
	spanNS     float64 // host cost of recording one span
	goroutines int     // peak runtime.NumGoroutine seen at block boundaries
	fabricRun  span
}

func newTracer(ops, every, spansPerOp int) *tracer {
	block := max(1, ops/(every*sampledBlocks))
	sampledOps := ops/every + ops/(every*8) + block // hashed sampling: margin over the mean
	return &tracer{
		base:   time.Now(),
		ops:    ops,
		block:  block,
		every:  every,
		spans:  make([]span, 0, spansPerOp*sampledOps+1024),
		spanNS: spanCost(),
	}
}

// spanCost measures the host cost of recording one span (a begin and an
// end into a fresh buffer), which every recorded span adds to the traced
// run; the accounting subtracts it. The minimum of a few rounds filters
// out host noise.
func spanCost() float64 {
	const n = 50000
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t := &tracer{base: time.Now(), spans: make([]span, 0, n)}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.end(t.begin(spRead, 0, 1, i))
		}
		ns := float64(time.Since(t0).Nanoseconds()) / n
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(k spanKind, host uint8, tid int32, op int) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{kind: k, host: host, tid: tid, op: int64(op), start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(slot int32) { t.spans[slot].end = t.now() }

func (t *tracer) startWindow() {
	t.blockStart, t.on, t.curStart = 0, t.sampled(0), t.now()
	t.goroutines = runtime.NumGoroutine()
}

// boundary closes the block ending at window op i and decides whether
// the next one is sampled.
func (t *tracer) boundary(i int) {
	now := t.now()
	if t.on {
		t.ivs = append(t.ivs, interval{start: t.curStart, end: now, ops: i - t.blockStart})
	}
	t.blockStart = i
	t.on = i < t.ops && t.sampled(i/t.block)
	t.curStart = now
	t.goroutines = max(t.goroutines, runtime.NumGoroutine())
}

// sampled picks one block in every by a hash of the block index rather
// than a stride: a workload whose ops complete in rounds (fleet's users)
// would otherwise alias with the stride and sample only one phase of
// each round.
func (t *tracer) sampled(block int) bool {
	g := rng{s: uint64(block)}
	return g.next()%uint64(t.every) == 0
}

// spanAgg is the accounting of one span kind over the sampled blocks.
type spanAgg struct {
	calls int
	self  int64
	durs  []int64
}

type accounting struct {
	kinds      [nOpSpans]spanAgg
	uncovered  int64 // sampled host time inside no span
	sampledOps int
	sampledNS  int64
}

// account partitions each sampled block's host time among the spans
// open in it: at every instant the time belongs to the most recently
// opened span still open, or to no span. One simulated thread runs at a
// time, so a span opened while another is open is a call some other
// thread made while the first was blocked, and a span's self time is its
// duration minus the time such nested calls cover. Spans still open at a
// block's end are cut there.
func (t *tracer) account() accounting {
	var a accounting
	type endEv struct {
		at  int64
		idx int
	}
	var ends []endEv
	var open []int
	j := 0
	for _, iv := range t.ivs {
		a.sampledOps += iv.ops
		a.sampledNS += iv.end - iv.start
		k := j
		for k < len(t.spans) && t.spans[k].start <= iv.end {
			k++
		}
		ends = ends[:0]
		for i := j; i < k; i++ {
			e := t.spans[i].end
			if e == 0 || e > iv.end {
				e = iv.end
			}
			ends = append(ends, endEv{at: e, idx: i})
		}
		slices.SortFunc(ends, func(x, y endEv) int { return cmp.Compare(x.at, y.at) })
		cur := iv.start
		charge := func(at int64) {
			if len(open) > 0 {
				a.kinds[t.spans[open[len(open)-1]].kind].self += at - cur
			} else {
				a.uncovered += at - cur
			}
			cur = at
		}
		open = open[:0]
		for si, ei := j, 0; si < k || ei < len(ends); {
			if si < k && (ei == len(ends) || t.spans[si].start <= ends[ei].at) {
				charge(t.spans[si].start)
				open = append(open, si)
				si++
				continue
			}
			charge(ends[ei].at)
			for o := len(open) - 1; o >= 0; o-- {
				if open[o] == ends[ei].idx {
					open = append(open[:o], open[o+1:]...)
					break
				}
			}
			ei++
		}
		charge(iv.end)
		j = k
	}
	for _, s := range t.spans {
		g := &a.kinds[s.kind]
		g.calls++
		if s.end != 0 {
			g.durs = append(g.durs, s.end-s.start)
		}
	}
	return a
}

// writeChrome writes the spans as Chrome/Perfetto trace-event JSON: one
// complete event per closed span, pid = host, tid = simulated thread.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	emit := func(s span) {
		fmt.Fprintf(w, `%s{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"op":%d}}`,
			sep, spanNames[s.kind], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.host, s.tid, s.op)
		sep = ",\n"
	}
	if t.fabricRun.end != 0 {
		emit(t.fabricRun)
	}
	for _, s := range t.spans {
		if s.end != 0 {
			emit(s)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
