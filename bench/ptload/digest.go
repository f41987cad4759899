package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// digestEntry folds a run's virtual outputs: they are deterministic
// functions of (workload, seed, op count), so any change to them is a
// change to the simulation, not host noise.
type digestEntry struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Ops         int     `json:"ops"`
	Digest      string  `json:"digest"`
	TotalVUS    float64 `json:"total_vus"`
	VUSPerOp    float64 `json:"vus_per_op"`
	P50VUS      float64 `json:"p50_vus"`
	P99VUS      float64 `json:"p99_vus"`
	Fingerprint string  `json:"fingerprint,omitempty"`
}

func digestOf(r *run) digestEntry {
	p50, p99 := r.lat.quantile(0.50), r.lat.quantile(0.99)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%s",
		r.w.name, r.seed, r.warm, r.ops, int64(r.vStart), int64(r.vEnd), p50, p99, r.fingerprint)
	return digestEntry{
		Workload:    r.w.name,
		Seed:        r.seed,
		Ops:         r.ops,
		Digest:      fmt.Sprintf("%016x", h.Sum64()),
		TotalVUS:    float64(r.vEnd) / 1e3,
		VUSPerOp:    vusPerOp(r),
		P50VUS:      float64(p50) / 1e3,
		P99VUS:      float64(p99) / 1e3,
		Fingerprint: r.fingerprint,
	}
}

// digest.json holds the recorded digests: seed 1 at the op counts of
// the default -seconds and of the tests.
//
//go:embed digest.json
var digestJSON []byte

func referenceDigest(d digestEntry) *digestEntry {
	var refs []digestEntry
	if err := json.Unmarshal(digestJSON, &refs); err != nil {
		panic(fmt.Sprintf("digest.json: %v", err))
	}
	for i := range refs {
		if refs[i].Workload == d.Workload && refs[i].Seed == d.Seed && refs[i].Ops == d.Ops {
			return &refs[i]
		}
	}
	return nil
}
