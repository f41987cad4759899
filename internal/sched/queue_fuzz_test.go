package sched

import (
	"testing"
)

// fuzzModel is the naive reference implementation: one ordered slice per
// priority level. Every queue operation is mirrored here and the full
// scheduling order is compared after each step, so any divergence in the
// ring-buffer deques (FIFO order across wrap-around, head insertion,
// middle removal, removal from an unknown level) is caught at the op that
// introduced it.
type fuzzModel struct {
	levels [NumPrio][]int
	size   int
}

func (m *fuzzModel) enqueue(x, i int)     { m.levels[i] = append(m.levels[i], x); m.size++ }
func (m *fuzzModel) enqueueHead(x, i int) { m.levels[i] = append([]int{x}, m.levels[i]...); m.size++ }

func (m *fuzzModel) removeAt(i, j int) {
	m.levels[i] = append(m.levels[i][:j], m.levels[i][j+1:]...)
	m.size--
}

func (m *fuzzModel) maxLevel() (int, bool) {
	for i := NumPrio - 1; i >= 0; i-- {
		if len(m.levels[i]) > 0 {
			return i, true
		}
	}
	return 0, false
}

// items returns the scheduling order, mirroring Queue.Items.
func (m *fuzzModel) items() []int {
	out := []int{}
	for i := NumPrio - 1; i >= 0; i-- {
		out = append(out, m.levels[i]...)
	}
	return out
}

// find locates an item, returning its level and offset.
func (m *fuzzModel) find(x int) (i, j int, ok bool) {
	for i := range m.levels {
		for j, v := range m.levels[i] {
			if v == x {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// FuzzQueueOps drives the priority queue with an opcode string and diffs
// it against the naive model after every operation: full ordering, size,
// per-level length, max level, and membership.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2})
	f.Add([]byte{2, 1, 0})
	// Exercise EnqueueHead, RemoveAny and DequeueAt interleavings, and
	// enough same-level churn to force ring wrap-around and growth.
	f.Add([]byte{0, 3, 0, 3, 4, 1, 5, 0, 3, 4})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1})
	f.Add([]byte{3, 3, 3, 3, 4, 4, 4, 4, 5, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[int]
		var m fuzzModel
		next := 0
		for i, op := range ops {
			p := (int(op) / 6) % NumPrio
			switch op % 6 {
			case 0: // enqueue at tail
				q.Enqueue(next, p)
				m.enqueue(next, p)
				next++
			case 1: // dequeue max
				x, xp, ok := q.DequeueMax()
				if mi, mok := m.maxLevel(); mok != ok {
					t.Fatalf("op %d: DequeueMax ok=%v, model %v", i, ok, mok)
				} else if ok {
					if xp != mi+MinPrio || x != m.levels[mi][0] {
						t.Fatalf("op %d: DequeueMax %d@%d, model %d@%d", i, x, xp, m.levels[mi][0], mi+MinPrio)
					}
					m.removeAt(mi, 0)
				}
			case 2: // remove a specific item at its known level
				if len(m.items()) > 0 {
					want := m.items()[(int(op)/6)%m.size]
					mi, mj, _ := m.find(want)
					if !q.Remove(want, mi+MinPrio) {
						t.Fatalf("op %d: Remove(%d,%d) failed", i, want, mi+MinPrio)
					}
					m.removeAt(mi, mj)
				} else if q.Remove(0, p+MinPrio) {
					t.Fatalf("op %d: Remove succeeded on empty queue", i)
				}
			case 3: // enqueue at head
				q.EnqueueHead(next, p)
				m.enqueueHead(next, p)
				next++
			case 4: // remove without knowing the level
				if m.size > 0 {
					want := m.items()[(int(op)/6)%m.size]
					mi, mj, _ := m.find(want)
					rp, ok := q.RemoveAny(want)
					if !ok || rp != mi+MinPrio {
						t.Fatalf("op %d: RemoveAny(%d) = %d,%v, model level %d", i, want, rp, ok, mi+MinPrio)
					}
					m.removeAt(mi, mj)
				} else if _, ok := q.RemoveAny(next + 1); ok {
					t.Fatalf("op %d: RemoveAny succeeded on empty queue", i)
				}
			case 5: // dequeue at a specific level
				x, ok := q.DequeueAt(p + MinPrio)
				if mok := len(m.levels[p]) > 0; ok != mok {
					t.Fatalf("op %d: DequeueAt(%d) ok=%v, model %v", i, p+MinPrio, ok, mok)
				} else if ok {
					if x != m.levels[p][0] {
						t.Fatalf("op %d: DequeueAt(%d) = %d, model %d", i, p+MinPrio, x, m.levels[p][0])
					}
					m.removeAt(p, 0)
				}
			}

			// Full-state diff against the model.
			if q.Len() != m.size {
				t.Fatalf("op %d: Len %d vs model %d", i, q.Len(), m.size)
			}
			got, want := q.Items(), m.items()
			if len(got) != len(want) {
				t.Fatalf("op %d: Items len %d vs model %d", i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("op %d: ordering diverged at %d: %v vs %v", i, k, got, want)
				}
			}
			for lvl := range m.levels {
				if q.LenAt(lvl+MinPrio) != len(m.levels[lvl]) {
					t.Fatalf("op %d: LenAt(%d) %d vs model %d", i, lvl+MinPrio, q.LenAt(lvl+MinPrio), len(m.levels[lvl]))
				}
			}
			if mp, ok := q.MaxLevel(); ok {
				mi, mok := m.maxLevel()
				if !mok || mp != mi+MinPrio {
					t.Fatalf("op %d: MaxLevel %d vs model %d,%v", i, mp, mi+MinPrio, mok)
				}
			} else if m.size != 0 {
				t.Fatalf("op %d: MaxLevel empty with %d items", i, m.size)
			}
			for _, x := range want {
				if !q.Contains(x) {
					t.Fatalf("op %d: Contains(%d) false for queued item", i, x)
				}
			}
			if q.Contains(next) {
				t.Fatalf("op %d: Contains(%d) true for never-queued item", i, next)
			}
		}
	})
}
