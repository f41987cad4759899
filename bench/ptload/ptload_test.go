package main

import (
	"math"
	"testing"
)

// testOps is the tests' op count: 1/1000 of the default run, at least
// enough for every fleet user to make a request.
func testOps(w *workload) int { return max(opsFor(w, 8)/1000, 300) }

// TestWorkloads runs every workload at test scale, untraced and then
// traced with every block sampled. Both runs must hold the workload's
// invariants and produce the same digest — spans recorded from outside
// the library must not move virtual time — and the traced run's span
// self times plus unaccounted time must add up to its measured total.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops := testOps(w)
			u := newRun(w, 1, warmFor(ops), ops, nil)
			execute(u)
			for _, v := range u.violations {
				t.Error(v)
			}
			if u.failed != 0 {
				t.Errorf("%d of %d ops failed", u.failed, u.issued)
			}
			d := digestOf(u)
			if ref := referenceDigest(d); ref == nil {
				t.Errorf("no reference digest for %s at %d ops; got %+v", w.name, ops, d)
			} else if ref.Digest != d.Digest {
				t.Errorf("digest %+v, reference %+v", d, *ref)
			}

			tr := newRun(w, 1, warmFor(ops), ops, newTracer(ops, 1, w.spansPerOp))
			execute(tr)
			for _, v := range tr.violations {
				t.Error(v)
			}
			if dt := digestOf(tr); dt != d {
				t.Errorf("traced digest %+v differs from untraced %+v", dt, d)
			}
			if tr.tr.dropped != 0 {
				t.Errorf("%d spans dropped", tr.tr.dropped)
			}
			m := map[string]float64{}
			for _, x := range layerMetrics(tr, 1) {
				m[x.name] = x.value
			}
			if c := m["trace.coverage_pct"]; math.Abs(c-100) > 10 {
				t.Errorf("span self times plus unaccounted time cover %.1f%% of the traced total", c)
			}
		})
	}
}

// TestAccountNested checks the self-time partition on hand-made spans:
// time goes to the most recently opened span still open, spans open at
// a block's end are cut there, and time inside no span is unaccounted.
func TestAccountNested(t *testing.T) {
	tr := &tracer{
		ivs: []interval{{start: 0, end: 100, ops: 2}, {start: 200, end: 300, ops: 1}},
		spans: []span{
			{kind: spRead, start: 10, end: 90},   // blocked read: 10..20, 40..50, 80..90
			{kind: spWrite, start: 20, end: 40},  // another thread's write inside it
			{kind: spLock, start: 50, end: 80},   // a lock wait inside the read...
			{kind: spAccept, start: 60, end: 70}, // ...with an accept inside it
			{kind: spClose, start: 250, end: 0},  // never closed: cut at 300
		},
	}
	a := tr.account()
	want := map[spanKind]int64{spRead: 30, spWrite: 20, spLock: 20, spAccept: 10, spClose: 50}
	for k, self := range want {
		if got := a.kinds[k].self; got != self {
			t.Errorf("%s self %d, want %d", spanNames[k], got, self)
		}
	}
	if a.uncovered != 20+50 {
		t.Errorf("uncovered %d, want 70", a.uncovered)
	}
	if a.sampledOps != 3 || a.sampledNS != 200 {
		t.Errorf("sampled %d ops in %d ns, want 3 in 200", a.sampledOps, a.sampledNS)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

// TestHistQuantile checks the histogram's bucket lower bounds.
func TestHistQuantile(t *testing.T) {
	var h hist
	for _, v := range []int64{5, 63, 64, 100, 1000, 1 << 40} {
		h.add(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 5}, {0.34, 64}, {0.5, 64}, {0.6, 100}, {0.8, 992}, {1, 1 << 40}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}
