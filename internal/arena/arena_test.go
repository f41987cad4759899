package arena

import (
	"runtime"
	"testing"
	"unsafe"
)

type rec struct {
	id   int64
	name string
	buf  [4]int64
}

func TestCarveAndChunkGrowth(t *testing.T) {
	a := New[rec]()
	size := unsafe.Sizeof(rec{})
	n := chunkLen(size, 0) + chunkLen(size, 1) + 1 // two full chunks and one slot of a third
	seen := map[*rec]bool{}
	for i := 0; i < n; i++ {
		p := a.Get()
		if p == nil {
			t.Fatalf("Get returned nil at %d", i)
		}
		if seen[p] {
			t.Fatalf("Get returned a live slot twice at %d", i)
		}
		seen[p] = true
		p.id = int64(i)
	}
	st := a.Stats()
	if st.Chunks != 3 {
		t.Fatalf("%d slots: chunks = %d, want 3", n, st.Chunks)
	}
	if st.Live != n || st.Free != 0 {
		t.Fatalf("stats = %+v, want live %d free 0", st, n)
	}
	if st.SlotBytes != int64(size) {
		t.Fatalf("SlotBytes = %d, want %d", st.SlotBytes, size)
	}
}

func TestFreeListLIFOReuseAndZeroing(t *testing.T) {
	a := New[rec]()
	p1, p2 := a.Get(), a.Get()
	p1.id, p1.name = 7, "stale"
	p2.id = 9
	a.Put(p1)
	a.Put(p2)
	if got := a.Stats(); got.Live != 0 || got.Free != 2 {
		t.Fatalf("after Put: %+v", got)
	}
	// LIFO: the most recently freed slot comes back first.
	if q := a.Get(); q != p2 {
		t.Fatalf("first reuse = %p, want p2 %p", q, p2)
	} else if q.id != 0 {
		t.Fatalf("reused slot not zeroed: id = %d", q.id)
	}
	if q := a.Get(); q != p1 {
		t.Fatalf("second reuse = %p, want p1 %p", q, p1)
	} else if q.id != 0 || q.name != "" {
		t.Fatalf("reused slot not zeroed: %+v", *q)
	}
	// Reuse did not carve a new chunk.
	if got := a.Stats(); got.Chunks != 1 {
		t.Fatalf("chunks after reuse = %d, want 1", got.Chunks)
	}
}

// TestDefaultChunkSlots pins the default geometry for an 8-byte slot:
// the first chunk is 2 KiB less the malloc header, 255 slots, and the
// second doubles to 511.
func TestDefaultChunkSlots(t *testing.T) {
	var a Arena[int64]
	for i := 0; i < 255; i++ {
		a.Get()
	}
	if got := a.Stats().Chunks; got != 1 {
		t.Fatalf("chunks = %d, want 1 after exactly one 2 KiB chunk's worth", got)
	}
	a.Get()
	if got := a.Stats().Chunks; got != 2 {
		t.Fatalf("chunks = %d, want 2 after one more", got)
	}
	if got := len(a.cur); got != 511 {
		t.Fatalf("second chunk holds %d slots, want 511", got)
	}
}

// carveChunks carves n chunks of T and returns each one's slot count.
func carveChunks[T any](n int) []int {
	var a Arena[T]
	var lens []int
	for len(lens) < n {
		a.Get()
		if a.next == 1 {
			lens = append(lens, len(a.cur))
		}
	}
	return lens
}

// TestChunkBytesDoubleTo32KiB checks that chunks are sized in bytes:
// the first holds at most 2 KiB of slots, each later one doubles the
// budget until it stops at 32 KiB, a chunk wastes less than one slot
// of its budget, and a slot larger than the budget gets one per chunk.
func TestChunkBytesDoubleTo32KiB(t *testing.T) {
	check := func(name string, size int, lens []int) {
		t.Helper()
		if len(lens) != 8 {
			t.Fatalf("%s: carved %d chunks, want 8", name, len(lens))
		}
		budget := 2 << 10
		for k, n := range lens {
			room := int(chunkRoom(k))
			switch {
			case size > room && n != 1:
				t.Errorf("%s: chunk %d holds %d slots of %d B over a %d B budget, want 1", name, k, n, size, budget)
			case size <= room && (n*size > room || n*size <= room-size):
				t.Errorf("%s: chunk %d is %d B (%d slots) for a %d B budget", name, k, n*size, n, budget)
			}
			if budget < 32<<10 {
				budget *= 2
			}
		}
	}
	tcb, big := carveChunks[[280]byte](8), carveChunks[[3000]byte](8)
	check("int64", 8, carveChunks[int64](8))
	check("rec", int(unsafe.Sizeof(rec{})), carveChunks[rec](8))
	check("[280]byte", 280, tcb)
	check("[3000]byte", 3000, big)
	check("[40000]byte", 40000, carveChunks[[40000]byte](8))

	if tcb[0] != 7 || tcb[4] != 117 || tcb[7] != 117 {
		t.Errorf("280 B slots per chunk = %v, want 7 first and 117 from the fifth", tcb)
	}
	if big[0] != 1 {
		t.Errorf("a 3000 B slot's first chunk holds %d slots, want 1", big[0])
	}
	if got := carveChunks[struct{}](2); got[0] < 1 || got[1] < 1 {
		t.Errorf("zero-size slots per chunk = %v, want at least 1", got)
	}
}

// TestChunksCostTheirBudget measures what each chunk of pointer-holding
// 256 B slots (the TCB's size) costs the heap: its byte budget, not the
// next size class up, which a budget filled to the byte would reach
// once the runtime adds its malloc header (2,304 B for the first chunk).
func TestChunksCostTheirBudget(t *testing.T) {
	type slot struct {
		p *int
		_ [248]byte
	}
	a := New[slot]()
	budget := uint64(firstChunkBytes)
	for k := 0; k <= maxChunkShift+1; k++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for n := chunkLen(unsafe.Sizeof(slot{}), k); n > 0; n-- {
			a.Get()
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
			t.Errorf("chunk %d of 256 B slots costs %d B of heap, want at most its %d B budget", k, got, budget)
		}
		if k < maxChunkShift {
			budget *= 2
		}
	}
}

func TestChurnStaysFlat(t *testing.T) {
	a := New[rec]()
	// Steady-state churn: after warmup, chunk count must not move.
	var held []*rec
	for i := 0; i < 256; i++ {
		held = append(held, a.Get())
	}
	base := a.Stats().Chunks
	for round := 0; round < 100; round++ {
		for _, p := range held {
			a.Put(p)
		}
		held = held[:0]
		for i := 0; i < 256; i++ {
			held = append(held, a.Get())
		}
	}
	if got := a.Stats().Chunks; got != base {
		t.Fatalf("churn grew the arena: chunks %d -> %d", base, got)
	}
	if got := a.Stats().Live; got != 256 {
		t.Fatalf("live = %d, want 256", got)
	}
}
