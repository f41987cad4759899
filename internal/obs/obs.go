// Package obs is the span layer of the fleet observability plane
// (DESIGN.md §14): distributed traces over the virtual datacenter. A
// Recorder mints deterministic span IDs for one host — a pure FNV-1a
// mix of (host ordinal, virtual instant, per-host sequence number),
// never wall-clock and never math/rand — and accumulates the host's
// spans as plain records. Trace context crosses the network piggybacked
// on fabric wire messages: the sender's (trace, span) pair rides every
// segment, the receiving host's Recorder remembers the last context
// delivered per flow, and the next Accept/Read span on that flow adopts
// it, stitching client span → wire message → server span into one
// trace. Spans come from two places: the I/O jacket opens one per
// blocking call (io.SetSpans), and the Recorder is a core.Tracer that
// turns the kernel's EvFork and EvJoin events into instant fork and
// join spans, so a request's spans follow the threads it fans out
// onto. The package observes and never charges: recording has no
// effect on any virtual clock, so a run's schedule is byte-identical
// with spans on or off.
package obs

import (
	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// Kind classifies a span.
type Kind uint8

const (
	KDial Kind = iota
	KAccept
	KRead
	KWrite
	KFork
	KJoin
)

var kindNames = [...]string{"dial", "accept", "read", "write", "fork", "join"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Span is one attributed unit of virtual time on one host. IDs are
// 64-bit and deterministic; Trace groups the spans of one causal
// request across hosts, Parent is the span that caused this one (0 for
// a root), LinkMsg is the wire message whose delivery this span
// adopted — the anchor the Perfetto flow arrow terminates on.
type Span struct {
	ID      uint64
	Trace   uint64
	Parent  uint64
	LinkMsg uint64
	Thread  int32
	TName   string
	Kind    Kind
	Name    string
	Start   vtime.Time
	End     vtime.Time
	Err     string
	// Done marks a closed span; CloseDangling force-closes the rest at
	// host teardown.
	Done bool
}

// WireMsg is one cross-host message observed by the fabric: its minted
// id (shared by the Perfetto "s"/"f" flow-event pair), the flow it
// belongs to, source and destination host ordinals, the span context it
// carried (zero when the sender had no span open), departure and
// arrival instants, and whether it was ever delivered (a partition can
// swallow it).
type WireMsg struct {
	Msg       uint64
	Flow      uint64
	Src, Dst  int
	SrcThread int32
	Trace     uint64
	Span      uint64
	Dep       vtime.Time
	At        vtime.Time
	Bytes     int
	Kind      string
	Delivered bool
}

// threadCtx is a thread's current trace position: spans the thread
// opens become children of (Trace, Span).
type threadCtx struct {
	trace, span uint64
}

// inbound is the last wire context delivered to this host on one flow.
type inbound struct {
	trace, span, msg uint64
}

// SpanRef is a handle to a span in a Recorder (its index); NoSpan means
// "none open".
type SpanRef int

// NoSpan is the nil SpanRef.
const NoSpan SpanRef = -1

// Recorder accumulates one host's spans. It is driven strictly by
// virtual events in schedule order (the fleet runs one goroutine at a
// time), so two runs of the same schedule produce identical records.
// It implements core.Tracer for the fork/join events.
type Recorder struct {
	host  int
	seq   uint64
	spans []Span

	threads  map[int32]threadCtx
	inbounds map[uint64]inbound
}

// NewRecorder builds the span recorder for host ordinal host.
func NewRecorder(host int) *Recorder {
	return &Recorder{
		host:     host,
		threads:  make(map[int32]threadCtx),
		inbounds: make(map[uint64]inbound),
	}
}

// Host returns the recorder's host ordinal.
func (r *Recorder) Host() int { return r.host }

// fnv-1a over the words of (host+1, at, seq): a pure function of
// virtual state, so IDs are byte-identical across runs and machines.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(words ...uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	if h == 0 {
		h = fnvOffset // keep 0 as the "no span" sentinel
	}
	return h
}

// MintID mints the next span/message id at virtual instant at.
func (r *Recorder) MintID(at vtime.Time) uint64 {
	r.seq++
	return fnvMix(uint64(r.host)+1, uint64(at), r.seq)
}

// Open starts a span on thread tid. The span joins the thread's current
// trace; with none, it roots a new trace named by its own id.
func (r *Recorder) Open(at vtime.Time, tid int32, tname string, k Kind, name string) SpanRef {
	id := r.MintID(at)
	ctx := r.threads[tid]
	trace, parent := ctx.trace, ctx.span
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, Span{
		ID: id, Trace: trace, Parent: parent,
		Thread: tid, TName: tname, Kind: k, Name: name, Start: at,
	})
	return SpanRef(len(r.spans) - 1)
}

// OpenUnder starts a span with an explicit parent context — the
// connection's trace for Read/Write spans — instead of the thread's.
func (r *Recorder) OpenUnder(at vtime.Time, tid int32, tname string, k Kind, name string, trace, parent uint64) SpanRef {
	id := r.MintID(at)
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, Span{
		ID: id, Trace: trace, Parent: parent,
		Thread: tid, TName: tname, Kind: k, Name: name, Start: at,
	})
	return SpanRef(len(r.spans) - 1)
}

// Close ends an open span; errStr annotates a failed call ("" = ok).
func (r *Recorder) Close(ref SpanRef, at vtime.Time, errStr string) {
	if ref == NoSpan {
		return
	}
	sp := &r.spans[ref]
	sp.End = at
	sp.Err = errStr
	sp.Done = true
}

// Span returns the record behind a ref (zero Span for NoSpan).
func (r *Recorder) Span(ref SpanRef) Span {
	if ref == NoSpan {
		return Span{}
	}
	return r.spans[ref]
}

// ThreadOf resolves a span id to the thread that opened it (0, false if
// unknown). The fabric uses it to anchor flow arrows on the sender's
// track.
func (r *Recorder) ThreadOf(span uint64) (int32, bool) {
	// Backwards: the carried span is almost always among the most
	// recently opened, so the common lookup is O(1).
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == span {
			return r.spans[i].Thread, true
		}
	}
	return 0, false
}

// Adopt joins span ref into the inbound wire context last delivered on
// flow, consuming it: the span's trace becomes the sender's, its parent
// the carried span, and LinkMsg the delivered message (the flow-arrow
// anchor). Returns false when nothing was pending on the flow.
func (r *Recorder) Adopt(ref SpanRef, flow uint64) bool {
	if ref == NoSpan {
		return false
	}
	in, ok := r.inbounds[flow]
	if !ok || in.trace == 0 {
		return false
	}
	delete(r.inbounds, flow)
	sp := &r.spans[ref]
	sp.Trace = in.trace
	sp.Parent = in.span
	sp.LinkMsg = in.msg
	return true
}

// Deliver records a wire context arriving on flow (called by the fabric
// at the delivery instant, on the receiving host's recorder). A later
// context overwrites an unconsumed earlier one: the adopting span links
// the freshest delivery.
func (r *Recorder) Deliver(flow, trace, span, msg uint64) {
	r.inbounds[flow] = inbound{trace: trace, span: span, msg: msg}
}

// Event implements core.Tracer for the fork/join half of the plane:
// an instant fork span on the creator, whose context the child
// inherits, and an instant join span on the joiner. It reads EvFork and
// EvJoin and ignores every other kind.
func (r *Recorder) Event(ev core.TraceEvent) {
	if ev.Thread == nil {
		return
	}
	switch ev.Kind {
	case core.EvFork:
		ref := r.Open(ev.At, int32(ev.Thread.ID()), ev.Thread.Name(), KFork, "fork "+ev.Peer.Name())
		r.Close(ref, ev.At, "")
		sp := r.spans[ref]
		r.threads[int32(ev.Peer.ID())] = threadCtx{trace: sp.Trace, span: sp.ID}
	case core.EvJoin:
		ref := r.Open(ev.At, int32(ev.Thread.ID()), ev.Thread.Name(), KJoin, "join "+ev.Peer.Name())
		r.Close(ref, ev.At, "")
	}
}

// CloseDangling closes every span still open at at — teardown kills
// servers parked in Accept, and their spans end with the host.
func (r *Recorder) CloseDangling(at vtime.Time) {
	for i := range r.spans {
		if r.spans[i].Done {
			continue
		}
		r.spans[i].End = at
		r.spans[i].Err = "unfinished"
		r.spans[i].Done = true
	}
}

// Spans returns the recorded spans in open order.
func (r *Recorder) Spans() []Span { return r.spans }
