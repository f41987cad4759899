package explore

import (
	"math/rand"

	"pthreads/internal/core"
)

// pctChooser implements PCT-style randomized-priority exploration
// (Burckhardt et al., "A Randomized Scheduler with Probabilistic
// Guarantees of Finding Bugs"): every thread gets a random priority on
// first sight, the highest-priority runnable thread always runs, and at
// d-1 pre-sampled change points the running thread's priority drops below
// everything seen so far. For a bug of depth d the schedule is found with
// probability >= 1/(n·k^(d-1)) per seed — and because the controller
// records the decisions actually taken, any finding is immediately
// replayable without the PRNG.
type pctChooser struct {
	rng     *rand.Rand
	prio    map[hostThread]int
	change  map[int]bool
	idx     int
	counter int // decreasing priorities handed out at change points
}

// newPCT builds a PCT chooser: depth d means d-1 priority-change points,
// sampled uniformly over the first horizon switch points.
func newPCT(seed int64, depth, horizon int) *pctChooser {
	if depth < 1 {
		depth = 1
	}
	if horizon < 1 {
		horizon = 1
	}
	c := &pctChooser{
		rng:    rand.New(rand.NewSource(seed)),
		prio:   make(map[hostThread]int),
		change: make(map[int]bool),
	}
	for i := 0; i < depth-1; i++ {
		c.change[c.rng.Intn(horizon)] = true
	}
	return c
}

func (c *pctChooser) prioOf(id hostThread) int {
	p, ok := c.prio[id]
	if !ok {
		// Random positive priority on first sight; change points hand
		// out strictly negative ones, so a dropped thread stays below
		// every undropped thread.
		p = c.rng.Intn(1 << 20)
		c.prio[id] = p
	}
	return p
}

// choose implements chooser: run the host's highest-PCT-priority
// thread. One chooser drives every host of a fleet, so change points
// count switch points fleet-wide.
func (c *pctChooser) choose(host int, _ core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (int, bool) {
	i := c.idx
	c.idx++
	if c.change[i] {
		c.counter--
		c.prio[hostThread{host, cur}] = c.counter
	}
	best, bestIdx := c.prioOf(hostThread{host, cur}), -1
	for j, id := range ready {
		if p := c.prioOf(hostThread{host, id}); p > best {
			best, bestIdx = p, j
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}

// RunPCT runs the target once under a PCT schedule derived from seed.
func RunPCT(t Target, seed int64, depth, horizon int) RunOutcome {
	return runSchedule(t, nil, newPCT(seed, depth, horizon))
}
