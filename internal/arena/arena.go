// Package arena provides chunked slab allocation for the kernel's
// long-lived per-thread and per-connection records. An Arena carves
// fixed-size slots out of chunks (index-addressed at carve time: slot i
// of chunk c is &chunk[i]) and recycles returned slots through a LIFO
// free list, so a million resident records cost a few thousand chunk
// allocations instead of a million individual ones, and churn
// (create/join loops) reuses hot slots instead of growing the heap.
//
// Chunks are sized in bytes, not slots, so the footprint follows the
// population: the first chunk holds 2 KiB of slots and each later one
// doubles, up to 32 KiB. A system with a few dozen records pays a few
// KiB, and a retired chunk that one long-lived record pins costs at
// most 32 KiB. Each budget is a Go runtime size class (32 KiB is the
// largest small one), so a chunk costs its budget and wastes less than
// one slot. Below 32 KiB the slots leave room for the 8 B header the
// runtime puts before a pointer-holding object of more than 512 B: eight
// 256 B slots would need 2,056 B and land in the 2,304 B class. A 32 KiB
// chunk is a large object, which has no header. A slot larger than a
// chunk's budget still gets one slot per chunk.
//
// Arenas are deliberately not thread-safe: every caller in this
// codebase allocates from kernel context, which is single-threaded by
// construction (the baton-passing uniprocessor kernel).
package arena

import "unsafe"

// Chunk byte budgets: the first chunk's, and the cap that doubling
// stops at (firstChunkBytes << maxChunkShift). mallocHeaderBytes is the
// type header the runtime stores in a small pointer-holding object of
// more than 512 B; the slots of a budget below the cap leave room for it.
const (
	firstChunkBytes   = 2 << 10
	maxChunkShift     = 4
	mallocHeaderBytes = 8
)

// Arena is a chunked slab allocator for values of type T.
// The zero value is an empty arena ready to use.
type Arena[T any] struct {
	cur    []T  // current partially-carved chunk
	next   int  // next uncarved slot in cur
	free   []*T // LIFO free list of returned slots
	chunks int  // chunks carved over the arena's lifetime
	live   int  // slots handed out and not returned
}

// Stats is a point-in-time snapshot of an arena's footprint.
type Stats struct {
	// Chunks is the number of chunks carved over the arena's lifetime.
	// Retired (fully-carved) chunks stay reachable only through the
	// slots handed out of them, so a fully-freed retired chunk is
	// garbage-collected normally.
	Chunks int
	// Live is the number of slots currently handed out.
	Live int
	// Free is the number of returned slots awaiting reuse.
	Free int
	// SlotBytes is the host size of one slot.
	SlotBytes int64
}

// New creates an empty arena.
func New[T any]() *Arena[T] { return &Arena[T]{} }

// chunkLen is the slot count of chunk k (from 0) for slots of
// slotBytes: the room in the chunk's byte budget over the slot size, at
// least one.
func chunkLen(slotBytes uintptr, k int) int {
	return int(max(chunkRoom(k)/max(slotBytes, 1), 1))
}

// chunkRoom is the bytes of slots chunk k holds: its budget, less the
// malloc header below the 32 KiB cap.
func chunkRoom(k int) uintptr {
	if k >= maxChunkShift {
		return firstChunkBytes << maxChunkShift
	}
	return firstChunkBytes<<k - mallocHeaderBytes
}

// Get returns a zeroed slot, reusing a freed slot if one is available
// and carving from the current chunk otherwise.
func (a *Arena[T]) Get() *T {
	a.live++
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return p
	}
	if a.next >= len(a.cur) {
		var zero T
		a.cur = make([]T, chunkLen(unsafe.Sizeof(zero), a.chunks))
		a.next = 0
		a.chunks++
	}
	p := &a.cur[a.next]
	a.next++
	return p
}

// Put zeroes a slot and returns it to the free list. The caller must
// not retain references into *p past the call.
func (a *Arena[T]) Put(p *T) {
	var zero T
	*p = zero
	a.free = append(a.free, p)
	a.live--
}

// Live returns the number of slots currently handed out.
func (a *Arena[T]) Live() int { return a.live }

// Stats snapshots the arena's footprint.
func (a *Arena[T]) Stats() Stats {
	var zero T
	return Stats{
		Chunks:    a.chunks,
		Live:      a.live,
		Free:      len(a.free),
		SlotBytes: int64(unsafe.Sizeof(zero)),
	}
}
