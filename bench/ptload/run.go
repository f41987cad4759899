package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"time"

	"pthreads"
	"pthreads/internal/fabric"
)

// run is one execution of a workload: it hands out op tickets, times the
// measured window in equal batches of ops, snapshots the layers' counters
// at the window's edges, and collects the virtual outputs the digest
// folds. Every field is touched by one simulated thread at a time (one
// baton per system, one running host per fleet), so none needs a lock.
type run struct {
	w          *workload
	seed       int64
	warm, ops  int // warm-up ops, measured ops
	tr         *tracer
	issued     int
	done       int
	failed     int
	batch      int     // ops per timing batch
	nextStamp  int     // window op count of the next batch boundary
	stamps     []int64 // host ns since the window start at each batch boundary
	t0, tWin   time.Time
	setup, win time.Duration

	vStart, vEnd pthreads.Time
	lat          hist // virtual latency of each measured op

	hosts         []*node
	fab           *fabric.Fabric
	before, after layerSnap
	heapMB        float64
	fingerprint   string
	violations    []string
}

// newRun prepares a run of ops measured ops after a warm-up of warm.
// ops == 0 runs the set-up and warm-up only.
func newRun(w *workload, seed int64, warm, ops int, tr *tracer) *run {
	r := &run{w: w, seed: seed, warm: warm, ops: ops, tr: tr}
	if ops > 0 {
		r.batch = max(1, ops/batches, w.clients)
		r.nextStamp = r.batch
		r.stamps = make([]int64, 1, ops/r.batch+1)
	}
	return r
}

// batches is the number of equal batches the window is timed in, unless
// the workload has more clients than that leaves ops per batch: a batch
// then holds one op per client, so that it spans a whole round of the
// closed loop instead of one phase of it.
const batches = 1000

// take issues the next op ticket; false once every op has been issued.
func (r *run) take() bool {
	if r.issued >= r.warm+r.ops {
		return false
	}
	r.issued++
	return true
}

// complete records one finished op: now is the completing host's virtual
// clock and lat the op's virtual latency. The warm-up's last completion
// opens the window and the last ticket's completion closes it.
func (r *run) complete(now pthreads.Time, lat pthreads.Duration, ok bool) {
	r.done++
	if !ok {
		r.failed++
	}
	i := r.done - r.warm
	if i < 0 {
		return
	}
	if i == 0 {
		r.startWindow(now)
		if r.ops == 0 {
			r.endWindow(now)
		}
		return
	}
	r.lat.add(int64(lat))
	if i == r.nextStamp {
		r.stamps = append(r.stamps, int64(time.Since(r.tWin)))
		r.nextStamp += r.batch
	}
	if r.tr != nil && (i%r.tr.block == 0 || i == r.ops) {
		r.tr.boundary(i)
	}
	if i == r.ops {
		r.endWindow(now)
	}
}

// violate records a broken output invariant; the run then reports
// correct=false.
func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// startWindow ends the set-up. The collection it forces returns every
// free page to the OS, so the runtime's background scavenger has nothing
// left to do inside the window.
func (r *run) startWindow(now pthreads.Time) {
	debug.FreeOSMemory()
	r.before = r.snapshot()
	r.vStart = now
	r.setup = time.Since(r.t0)
	if r.tr != nil {
		r.tr.startWindow()
	}
	r.tWin = time.Now()
}

func (r *run) endWindow(now pthreads.Time) {
	r.win = time.Since(r.tWin)
	r.vEnd = now
	r.after = r.snapshot()
	if r.ops > 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	}
}

// node binds one host's thread system and socket jacket to the run. Its
// methods are the calls into the library that the traced run brackets
// with spans; untraced, each costs one nil check.
type node struct {
	r    *run
	host uint8
	sys  *pthreads.System
	x    *pthreads.IO
}

func (r *run) addHost(sys *pthreads.System, x *pthreads.IO) *node {
	n := &node{r: r, host: uint8(len(r.hosts)), sys: sys, x: x}
	r.hosts = append(r.hosts, n)
	return n
}

func (n *node) begin(k spanKind) int32 {
	if tr := n.r.tr; tr != nil && tr.on {
		return tr.begin(k, n.host, int32(n.sys.Self().ID()), n.r.done)
	}
	return -1
}

func (n *node) end(slot int32) {
	if slot >= 0 {
		n.r.tr.end(slot)
	}
}

func (n *node) read(c *pthreads.Conn, max int) (int, error) {
	s := n.begin(spRead)
	k, err := c.Read(max)
	n.end(s)
	return k, err
}

// readFull reads exactly want bytes.
func (n *node) readFull(c *pthreads.Conn, want int) error {
	for got := 0; got < want; {
		k, err := n.read(c, want-got)
		if err != nil {
			return err
		}
		got += k
	}
	return nil
}

func (n *node) write(c *pthreads.Conn, k int) error {
	s := n.begin(spWrite)
	_, err := c.Write(k)
	n.end(s)
	return err
}

func (n *node) dial(addr string) (*pthreads.Conn, error) {
	s := n.begin(spDial)
	c, err := n.x.Dial(addr)
	n.end(s)
	return c, err
}

func (n *node) accept(l *pthreads.Listener) (*pthreads.Conn, error) {
	s := n.begin(spAccept)
	c, err := l.Accept()
	n.end(s)
	return c, err
}

func (n *node) close(c *pthreads.Conn) error {
	s := n.begin(spClose)
	err := c.Close()
	n.end(s)
	return err
}

func (n *node) create(attr pthreads.Attr, fn func(any) any, arg any) (*pthreads.Thread, error) {
	s := n.begin(spCreate)
	t, err := n.sys.Create(attr, fn, arg)
	n.end(s)
	return t, err
}

func (n *node) join(t *pthreads.Thread) error {
	s := n.begin(spJoin)
	_, err := n.sys.Join(t)
	n.end(s)
	return err
}

func (n *node) lock(m *pthreads.Mutex) error {
	s := n.begin(spLock)
	err := m.Lock()
	n.end(s)
	return err
}

func (n *node) sleep(d pthreads.Duration) {
	s := n.begin(spSleep)
	n.sys.Sleep(d)
	n.end(s)
}

// hist is a log-linear histogram of virtual nanoseconds: exact below 64,
// then 32 sub-buckets per power of two. Percentiles are bucket lower
// bounds, so they are deterministic functions of the recorded values.
type hist struct {
	n      int64
	counts [64][32]int64
	small  [64]int64
}

func (h *hist) add(v int64) {
	h.n++
	if v < 64 {
		h.small[max(v, 0)]++
		return
	}
	shift := bits.Len64(uint64(v)) - 6
	h.counts[shift][(v>>shift)-32]++
}

// quantile returns the lower bound of the bucket holding the q-quantile
// (nearest rank).
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n)))-1, 0)
	for v, c := range h.small {
		if rank -= c; rank < 0 {
			return int64(v)
		}
	}
	for shift := range h.counts {
		for sub, c := range h.counts[shift] {
			if rank -= c; rank < 0 {
				return int64(sub+32) << shift
			}
		}
	}
	return 0
}

// rng is splitmix64: the one source of every seeded input.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }
