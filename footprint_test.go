package pthreads_test

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pthreads"
	"pthreads/internal/net"
)

// TestEchoLadderZeroAllocs is the echo ladder's steady-state allocation
// gate: a round trip with no parked readers, beside 10,000 and beside
// 100,000 allocates nothing, because the wait-queue shards, descriptor
// table, timer wheel and batched completions are all preallocated or
// pooled. Each population is built once (BenchmarkNetEcho,
// BenchmarkC10KEcho and BenchmarkC100KEcho time the same round trip).
// The empty rung runs again with the fleet span recorder attached, and
// the same rounds must take the same virtual time, with the same time
// spent blocked in them: the observability plane bills host bytes, never
// virtual time.
func TestEchoLadderZeroAllocs(t *testing.T) {
	type timing struct{ elapsed, blocked pthreads.Duration }
	var off, on timing // the empty rung's rounds, spans off and on
	for _, rung := range []struct {
		parked int
		spans  bool
	}{{0, false}, {0, true}, {10000, false}, {100000, false}} {
		withEchoParked(t, rung.parked, rung.spans, func(s *pthreads.System, round func()) {
			for i := 0; i < 100; i++ {
				round() // warm the pools
			}
			v0, b0 := s.Now(), s.Stats().FDBlockedNS
			n := testing.AllocsPerRun(200, round)
			got := timing{s.Now().Sub(v0), pthreads.Duration(s.Stats().FDBlockedNS - b0)}
			switch {
			case rung.parked > 0:
			case rung.spans:
				on = got
			default:
				off = got
			}
			if !rung.spans && n != 0 {
				t.Errorf("echo round trip beside %d parked readers allocates %.0f times, want 0", rung.parked, n)
			}
		})
	}
	if off.elapsed == 0 || off != on {
		t.Errorf("the same echo rounds took %v (%v blocked) with spans off and %v (%v blocked) with spans on, want equal",
			off.elapsed, off.blocked, on.elapsed, on.blocked)
	}
}

// TestEchoParkedFootprint parks readers the way bench/ptload's echo
// workload parks its 100,000 — CreateCont above main's priority, Dial,
// ContRead, while main accepts the far end and drops it — and bounds
// what one parked reader costs: at most 800 B of host heap after GC, and
// at most 4 allocations while it is set up. A reader is a TCB slot and a
// continuation frame (arena chunks), one connection object holding both
// endpoints and their pipes, the jacket's read record (an arena slot)
// and the dialing end's io.Conn, beside its fd-table and roster slots.
// Its simulated stack is never built: nothing pushes a frame past its
// base frame. The accepted end's io.Conn is garbage once dropped.
func TestEchoParkedFootprint(t *testing.T) {
	const readers = 20000
	s := pthreads.New(pthreads.Config{})
	var bytesPer, allocsPer float64
	var tcbBytes int64
	var readRec uintptr
	err := s.Run(func() {
		x := pthreads.NewIO(s, pthreads.NetConfig{RecvBuf: 2048, SendBuf: 2048})
		lp, err := x.Listen("park", 16)
		if err != nil {
			t.Fatal(err)
		}
		woke := func(k *pthreads.Cont) { t.Errorf("parked reader woke: n=%d err=%v", k.N, k.Err) }
		step := func(k *pthreads.Cont) {
			c, err := x.Dial("park")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.ContRead(k, 1, woke)
			if readRec == 0 {
				readRec = reflect.TypeOf(k.DeclaredFDOp()).Elem().Size()
			}
		}
		attr := pthreads.DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		attr.Name = "parked"

		runtime.GC()
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < readers; i++ {
			if _, err := s.CreateCont(attr, step, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := lp.Accept(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		allocsPer = float64(m1.Mallocs-m0.Mallocs) / readers
		bytesPer = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / readers
		st := s.Stats()
		tcbBytes = st.ArenaSlotBytes
		if st.ContParked != readers {
			t.Errorf("%d of %d readers parked", st.ContParked, readers)
		}
		s.Shutdown(nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	layers := []struct {
		name  string
		bytes float64
	}{
		{"core TCB slot", float64(tcbBytes)},
		{"core continuation frame", float64(unsafe.Sizeof(pthreads.Cont{}))},
		{"core simulated stack", 0},
		{"net connection (2 endpoints, 2 pipes)", float64(2 * unsafe.Sizeof(net.Conn{}))},
		{"io read record", float64(readRec)},
		{"io.Conn (dialing end)", float64(unsafe.Sizeof(pthreads.Conn{}))},
	}
	rest := bytesPer
	for _, l := range layers {
		t.Logf("  %-40s %6.0f B", l.name, l.bytes)
		rest -= l.bytes
	}
	t.Logf("  %-40s %6.1f B", "fd rows, fd table, roster, chunk slack", rest)
	t.Logf("  %-40s %6.1f B, %.2f allocations during setup", "total per parked reader", bytesPer, allocsPer)
	if bytesPer <= 0 || bytesPer > 800 {
		t.Errorf("a parked reader costs %.1f B of heap, want (0, 800]", bytesPer)
	}
	if allocsPer > 4 {
		t.Errorf("parking a reader allocates %.2f times, want at most 4", allocsPer)
	}
}
