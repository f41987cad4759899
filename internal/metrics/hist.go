package metrics

import (
	"math"
	"math/bits"

	"pthreads/internal/vtime"
)

// Histogram is a fixed-bucket latency histogram over virtual durations.
// Buckets are powers of two of nanoseconds: bucket i counts durations d
// with 2^(i-1) <= d < 2^i (bucket 0 counts exact zeros). The bucket array
// is part of the struct, so recording never allocates — the zero-alloc
// contract of the per-event hot path.
type Histogram struct {
	Count int64
	Sum   vtime.Duration
	Max   vtime.Duration
	// B[i] counts durations whose bit length is i (see bucketOf).
	B [65]int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d vtime.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) vtime.Duration {
	if i <= 0 {
		return 0
	}
	return vtime.Duration(1) << (i - 1)
}

// Record adds one duration.
func (h *Histogram) Record(d vtime.Duration) {
	if d < 0 {
		d = 0
	}
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
	h.B[bucketOf(d)]++
}

// Mean returns the average recorded duration (0 when empty).
func (h *Histogram) Mean() vtime.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / vtime.Duration(h.Count)
}

// Quantile returns the lower bound of the bucket containing the q-th
// quantile (0 < q <= 1) — a bucketed approximation, exact to a factor of
// two, which is what a power-of-two histogram can honestly promise.
func (h *Histogram) Quantile(q float64) vtime.Duration {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.B {
		seen += h.B[i]
		if seen >= target {
			return bucketLo(i)
		}
	}
	return h.Max
}

// HistBucket is one non-empty bucket in exported form.
type HistBucket struct {
	LoNS int64 `json:"lo_ns"` // inclusive lower bound
	N    int64 `json:"n"`
}

// HistJSON is the machine-readable form of a histogram.
type HistJSON struct {
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	MaxNS   int64        `json:"max_ns"`
	MeanNS  int64        `json:"mean_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// JSON exports the non-empty buckets.
func (h *Histogram) JSON() HistJSON {
	out := HistJSON{Count: h.Count, SumNS: int64(h.Sum), MaxNS: int64(h.Max), MeanNS: int64(h.Mean())}
	for i, n := range h.B {
		if n > 0 {
			out.Buckets = append(out.Buckets, HistBucket{LoNS: int64(bucketLo(i)), N: n})
		}
	}
	return out
}
