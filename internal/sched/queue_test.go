package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	if _, _, ok := q.PeekMax(); ok {
		t.Fatal("PeekMax on empty")
	}
	if _, _, ok := q.DequeueMax(); ok {
		t.Fatal("DequeueMax on empty")
	}
	if _, ok := q.MaxLevel(); ok {
		t.Fatal("MaxLevel on empty")
	}
}

func TestFIFOWithinLevel(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 5)
	q.Enqueue(2, 5)
	q.Enqueue(3, 5)
	for want := 1; want <= 3; want++ {
		x, p, ok := q.DequeueMax()
		if !ok || x != want || p != 5 {
			t.Fatalf("got %d@%d, want %d@5", x, p, want)
		}
	}
}

func TestHighestPriorityFirst(t *testing.T) {
	var q Queue[string]
	q.Enqueue("lo", 1)
	q.Enqueue("hi", 30)
	q.Enqueue("mid", 15)
	want := []string{"hi", "mid", "lo"}
	for _, w := range want {
		x, _, _ := q.DequeueMax()
		if x != w {
			t.Fatalf("got %s, want %s", x, w)
		}
	}
}

func TestEnqueueHead(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 5)
	q.EnqueueHead(2, 5)
	x, _, _ := q.DequeueMax()
	if x != 2 {
		t.Fatalf("head insert not first: got %d", x)
	}
}

func TestRemove(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 5)
	q.Enqueue(2, 5)
	q.Enqueue(3, 5)
	if !q.Remove(2, 5) {
		t.Fatal("Remove returned false")
	}
	if q.Remove(2, 5) {
		t.Fatal("Remove returned true twice")
	}
	if q.Remove(9, 5) {
		t.Fatal("Remove of absent item")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	x, _, _ := q.DequeueMax()
	y, _, _ := q.DequeueMax()
	if x != 1 || y != 3 {
		t.Fatalf("got %d,%d", x, y)
	}
}

func TestRemoveAny(t *testing.T) {
	var q Queue[int]
	q.Enqueue(7, 3)
	p, ok := q.RemoveAny(7)
	if !ok || p != 3 {
		t.Fatalf("RemoveAny = %d, %v", p, ok)
	}
	if _, ok := q.RemoveAny(7); ok {
		t.Fatal("RemoveAny found removed item")
	}
}

func TestRemoveEmptiesBitmap(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 9)
	q.Remove(1, 9)
	if _, ok := q.MaxLevel(); ok {
		t.Fatal("bitmap not cleared")
	}
	q.Enqueue(2, 4)
	if p, _ := q.MaxLevel(); p != 4 {
		t.Fatalf("MaxLevel = %d", p)
	}
}

func TestContains(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 0)
	if !q.Contains(1) || q.Contains(2) {
		t.Fatal("Contains wrong")
	}
}

func TestLenAt(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 2)
	q.Enqueue(2, 2)
	q.Enqueue(3, 4)
	if q.LenAt(2) != 2 || q.LenAt(4) != 1 || q.LenAt(0) != 0 {
		t.Fatal("LenAt wrong")
	}
}

func TestNth(t *testing.T) {
	var q Queue[string]
	q.Enqueue("a", 10)
	q.Enqueue("b", 10)
	q.Enqueue("c", 3)
	want := []string{"a", "b", "c"}
	for i, w := range want {
		x, _, ok := q.Nth(i)
		if !ok || x != w {
			t.Fatalf("Nth(%d) = %s, want %s", i, x, w)
		}
	}
	if _, _, ok := q.Nth(3); ok {
		t.Fatal("Nth out of range")
	}
	if _, _, ok := q.Nth(-1); ok {
		t.Fatal("Nth(-1)")
	}
}

func TestItemsOrder(t *testing.T) {
	var q Queue[int]
	q.Enqueue(3, 1)
	q.Enqueue(1, 20)
	q.Enqueue(2, 20)
	items := q.Items()
	want := []int{1, 2, 3}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("Items = %v", items)
		}
	}
}

func TestDequeueAt(t *testing.T) {
	var q Queue[int]
	q.Enqueue(1, 5)
	q.Enqueue(2, 8)
	x, ok := q.DequeueAt(5)
	if !ok || x != 1 {
		t.Fatalf("DequeueAt = %d, %v", x, ok)
	}
	if _, ok := q.DequeueAt(5); ok {
		t.Fatal("DequeueAt on empty level")
	}
}

func TestInvalidPriorityPanics(t *testing.T) {
	var q Queue[int]
	for _, p := range []int{-1, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for priority %d", p)
				}
			}()
			q.Enqueue(1, p)
		}()
	}
}

func TestValidPrio(t *testing.T) {
	if !ValidPrio(MinPrio) || !ValidPrio(MaxPrio) || ValidPrio(MinPrio-1) || ValidPrio(MaxPrio+1) {
		t.Fatal("ValidPrio wrong")
	}
}

// Property: dequeue order is always (priority desc, FIFO) regardless of
// the interleaving of enqueues.
func TestDequeueOrderProperty(t *testing.T) {
	f := func(prios []uint8) bool {
		var q Queue[int]
		type item struct{ id, prio int }
		var items []item
		for i, p := range prios {
			prio := int(p) % NumPrio
			q.Enqueue(i, prio)
			items = append(items, item{i, prio})
		}
		// Expected: stable sort by priority descending.
		for p := MaxPrio; p >= MinPrio; p-- {
			for _, it := range items {
				if it.prio != p {
					continue
				}
				x, gp, ok := q.DequeueMax()
				if !ok || x != it.id || gp != p {
					return false
				}
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: size bookkeeping survives random enqueue/dequeue/remove
// sequences, and the bitmap always matches the per-level contents.
func TestSizeInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		var q Queue[int]
		rng := rand.New(rand.NewSource(seed))
		present := map[int]int{} // id -> prio
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				p := rng.Intn(NumPrio)
				q.Enqueue(next, p)
				present[next] = p
				next++
			case 1:
				if x, p, ok := q.DequeueMax(); ok {
					if present[x] != p {
						return false
					}
					delete(present, x)
				}
			case 2:
				for id, p := range present { // random-ish pick
					if !q.Remove(id, p) {
						return false
					}
					delete(present, id)
					break
				}
			}
			if q.Len() != len(present) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCountPicksAndScans: DequeueMax counts one pick per item it
// hands out, a search counts the entries it compares (through the match,
// or the whole level on a miss), and Nth counts the levels it steps
// through.
func TestStatsCountPicksAndScans(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 4; i++ {
		q.Enqueue(i, 5)
	}
	q.Enqueue(9, 7)
	if x, _, _ := q.DequeueMax(); x != 9 {
		t.Fatalf("DequeueMax = %d, want 9", x)
	}
	if st := q.Stats(); st.Picks != 1 || st.Scanned != 0 {
		t.Fatalf("after one pick: %+v", st)
	}
	steps := []struct {
		name    string
		op      func()
		scanned int64
	}{
		{"Remove hit", func() { q.Remove(3, 5) }, 3},                       // 1, 2, 3
		{"Remove miss", func() { q.Remove(8, 5) }, 3},                      // 1, 2, 4
		{"Contains", func() { q.Contains(4) }, 3},                          // 1, 2, 4
		{"RemoveAny", func() { q.RemoveAny(2) }, 2},                        // 1, 2
		{"Nth", func() { q.Nth(1) }, sched31to5},                           // levels 31..5
		{"PeekMax", func() { q.PeekMax() }, 0},                             // no search
		{"DequeueAt", func() { q.DequeueAt(5) }, 0},                        // not a pick
		{"Enqueue", func() { q.Enqueue(6, 5) }, 0},                         // no search
		{"DequeueMax twice", func() { q.DequeueMax(); q.DequeueMax() }, 0}, // two picks, 4 and 6
		{"DequeueMax empty", func() { q.DequeueMax() }, 0},                 // no item, no pick
		{"Contains empty", func() { q.Contains(6) }, 0},                    // no level to scan
	}
	var want int64
	for _, s := range steps {
		s.op()
		want += s.scanned
		if got := q.Stats().Scanned; got != want {
			t.Errorf("after %s: Scanned %d, want %d", s.name, got, want)
		}
	}
	if got := q.Stats().Picks; got != 3 {
		t.Errorf("Picks %d, want 3", got)
	}
}

const sched31to5 = 31 - 5 + 1
