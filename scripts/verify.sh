#!/bin/sh
# Tier-1 verification: build + full test suite, vet, and the race
# detector over the packages with the hottest concurrency-adjacent code.
# (The simulation itself is single-goroutine-at-a-time by construction;
# -race still guards the baton-passing and pool machinery, including the
# continuation paths of io (ContRead) and sem (ContP) across the runner
# handoff.)
set -ex
cd "$(dirname "$0")/.."
go build ./...
go test ./...
go vet ./...
go test -race ./internal/core/ ./internal/sched/ ./internal/io/ ./internal/sem/ ./internal/net/ ./internal/unixkern/

# Schedule-exploration smoke: bounded search must find the seeded bugs
# (deadlock, lost update), shrink them, and replay the minimized token to
# a byte-identical failing trace; the fixed variants must come back
# clean; record→replay must be deterministic.
go run ./cmd/ptexplore -workload philosophers-broken -policy bounded -bound 2 -lock-only -expect found
go run ./cmd/ptexplore -workload philosophers-fixed -policy bounded -bound 2 -lock-only -expect clean
go run ./cmd/ptexplore -workload racy-counter -policy bounded -bound 1 -expect found
go run ./cmd/ptexplore -workload racy-counter-fixed -policy bounded -bound 1 -expect clean
go run ./cmd/ptexplore -workload racy-counter -check-replay

# Blocking-I/O jacket smoke: the webserver example must complete (it
# exits nonzero if its two runs produce different trace tokens); the
# socket workloads must explore clean — except the seeded lost-wakeup
# bug, which the bounded search must find (and whose flag race the
# checker must flag).
go run ./examples/webserver > /dev/null
go run ./cmd/ptexplore -workload sock-echo -policy bounded -bound 1 -expect clean
go run ./cmd/ptexplore -workload sock-lost-wakeup -policy bounded -bound 1 -races -expect found
go run ./cmd/ptexplore -workload sock-lost-wakeup-fixed -policy bounded -bound 1 -expect clean

# Profiler smoke: ptprof must self-check (deterministic chrome + profile
# JSON exports, 100% virtual-time attribution) on the webserver workload;
# the inversion watchdog must fire on the no-protocol Figure 5 scenario
# and stay quiet under priority inheritance and ceiling.
go run ./cmd/ptprof -workload webserver -check -q
go run ./cmd/ptprof -workload inversion -expect inversion -q
go run ./cmd/ptprof -workload inversion-inherit -expect clean -q
go run ./cmd/ptprof -workload inversion-ceiling -expect clean -q
go run ./cmd/ptprof -workload deadlock -expect deadlock -q

# Observer-off check: the base report must be deterministic, and
# `ptreport -profile` must reproduce it byte-for-byte as a prefix —
# attaching the collector to the profile workloads changes nothing in
# the unobserved sections, because trace events charge nothing.
a="$(go run ./cmd/ptreport)"
b="$(go run ./cmd/ptreport)"
[ "$a" = "$b" ]
p="$(go run ./cmd/ptreport -profile)"
case "$p" in "$a"*) ;; *) echo "ptreport -profile diverges from the base report" >&2; exit 1 ;; esac

# Parallel-sweep determinism: the sharded ptexplore sweep must be
# byte-identical to the sequential one, for both search policies and
# for a fleet target (the deterministic-merge property the parallel
# engine guarantees), and the explore package's worker pool must be
# race-clean.
go test -race ./internal/explore/
t="$(mktemp -d)"
go run ./cmd/ptexplore -workload philosophers-broken -policy bounded -bound 2 -lock-only -parallel 1 > "$t/seq.txt"
go run ./cmd/ptexplore -workload philosophers-broken -policy bounded -bound 2 -lock-only -parallel 8 > "$t/par.txt"
cmp "$t/seq.txt" "$t/par.txt"
go run ./cmd/ptexplore -workload racy-counter -policy pct -seeds 50 -parallel 1 > "$t/seq.txt"
go run ./cmd/ptexplore -workload racy-counter -policy pct -seeds 50 -parallel 8 > "$t/par.txt"
cmp "$t/seq.txt" "$t/par.txt"
go run ./cmd/ptexplore -fleet fleet-lost-wakeup -policy bounded -bound 2 -parallel 1 > "$t/seq.txt"
go run ./cmd/ptexplore -fleet fleet-lost-wakeup -policy bounded -bound 2 -parallel 8 > "$t/par.txt"
cmp "$t/seq.txt" "$t/par.txt"

# C10k smoke at reduced N: the scaling scenarios must run clean, and the
# dispatch and uncontended-mutex per-op costs must stay flat (within 40%)
# as the thread population grows 8 -> 1000: `ptbench -diff` holds the
# c10k section the run records to that bound. The bound is a host-noise
# tripwire, not the regression detector: mutex is an ~25 ns measurement
# on a shared host. Each rung keeps its minimum of 21 reps, taken
# rep-major (every pass measures every rung once, after a GC), so a
# noisy stretch of the host cannot land on all reps of one rung — the
# exact gates are RunC10K's own vus/op and percentile invariance check
# (every run below fails on a drift) and the per-op ready-queue and
# timer-wheel counts that eval's C10K*CountsFlat tests hold flat in
# `go test ./...`.
go run ./cmd/ptbench -c10k -c10kmax 1000 -c10kreps 21 -out "$t/bench.json"
go run ./cmd/ptbench -diff -out "$t/bench.json"

# C100k smoke at reduced reps: the full ladder to 100,000 threads must
# run clean. RunC10K fails the run if any rung's vus/op, or the
# open-loop latency percentiles, differ from the scenario's first rung:
# population changes host time, never simulated time.
go run ./cmd/ptbench -c10k -c10kmax 100000 -c10kreps 1 -out ""

# The steady-state allocation gate on the echo ladder (0 allocations
# per round trip with no parked readers, beside 10,000 and beside
# 100,000) is TestEchoLadderZeroAllocs, run by `go test ./...` above.

# Resident-footprint smoke (DESIGN.md §15, E32) at a reduced
# population: RunC1M itself fails unless every thread parks as a
# continuation (no goroutine) with the runner pool and goroutine delta
# inside the O(pool) budget, so a clean exit is the representation
# holding at 200k residents. The 499 B bytes/resident tripwire at the
# same population is eval.TestC1MBytesPerResident200K, run by
# `go test ./...` above.
go run ./cmd/ptbench -c1m -c1mthreads 200000 -out ""

# Batched-SIGIO determinism: two full webserver runs (the workload with
# the densest same-tick readiness traffic) must be byte-identical on
# stdout, on top of the trace-token self-check each run already does.
go run ./examples/webserver > "$t/ws1.txt"
go run ./examples/webserver > "$t/ws2.txt"
cmp "$t/ws1.txt" "$t/ws2.txt"

# Simulated-SMP gates (DESIGN.md §12, E29). First the N=1 byte-identity
# claim: the SMP machinery must leave every uniprocessor artifact — the
# Table 2 regeneration, the full ptreport, the webserver trace tokens —
# byte-identical to the checked-in pre-SMP golden outputs.
go run ./cmd/ptreport table2 > "$t/table2.txt"
cmp scripts/golden/table2.txt "$t/table2.txt"
go run ./cmd/ptreport > "$t/ptreport.txt"
cmp scripts/golden/ptreport.txt "$t/ptreport.txt"
cmp scripts/golden/webserver.txt "$t/ws1.txt"

# Multiprocessor determinism: two full contention-ladder runs (every
# engine, 1..8 VCPUs, schedule hashes included) must be byte-identical.
go run ./cmd/ptbench -smp -out "" > "$t/smp1.txt"
go run ./cmd/ptbench -smp -out "" > "$t/smp2.txt"
cmp "$t/smp1.txt" "$t/smp2.txt"

# The lock-engine protocols must hold up under the host race detector
# (real goroutine interleavings over the same protocol code the
# simulator runs), and the engine exploration workloads must behave:
# bounded DFS finds the seeded unfair-handoff mutual-exclusion bug,
# while MCS handoff, the 16-bit ticket wraparound, and the repaired
# unfair engine explore clean.
go test -race ./internal/lockeng/
go run ./cmd/ptexplore -workload lock-unfair -policy bounded -bound 1 -races -expect found
go run ./cmd/ptexplore -workload lock-unfair-fixed -policy bounded -bound 2 -expect clean
go run ./cmd/ptexplore -workload lock-mcs-handoff -policy bounded -bound 2 -expect clean
go run ./cmd/ptexplore -workload lock-ticket-wrap -policy bounded -bound 2 -expect clean

# Virtual-datacenter gates (DESIGN.md §13, E30). The fabric's baton
# machinery under the host race detector, then fleet determinism: the
# 9-host fault-injection example must produce byte-identical stdout
# across two full runs (each run already self-checks its fingerprint
# and all nine trace streams internally and exits 1 on mismatch), and
# two dc-ladder sweeps must render identical bytes, fingerprints and
# all — determinism under randomized loss.
go test -race ./internal/metrics/ ./internal/fabric/
go run ./examples/fleet > "$t/fleet1.txt"
go run ./examples/fleet > "$t/fleet2.txt"
cmp "$t/fleet1.txt" "$t/fleet2.txt"
# The double run only compares a build with itself; the golden pins the
# fleet's decision stream (fingerprint, trace hash, per-host results)
# across commits, so a rewrite that reordered grants deterministically
# still fails here.
cmp scripts/golden/fleet.txt "$t/fleet1.txt"
go run ./cmd/ptbench -dc -dcreplicas 1,2 -dcloss 0,0.05 -dcclients 80 -out "" > "$t/dc1.txt"
go run ./cmd/ptbench -dc -dcreplicas 1,2 -dcloss 0,0.05 -dcclients 80 -out "" > "$t/dc2.txt"
cmp "$t/dc1.txt" "$t/dc2.txt"
# Pinned the same way: every rung's makespan, latencies and fingerprint.
cmp scripts/golden/dc.txt "$t/dc1.txt"

# Cross-host exploration, the same engine over a fleet target: the
# bounded search must find the seeded fleet lost wakeup (and shrink and
# replay its host-qualified token to an identical failing trace, with
# the flag race flagged across the network's happens-before edges);
# the repaired scenario explores clean at lock points and at every
# kernel exit; fleet record->replay must be deterministic. The
# per-host Perfetto export self-checks byte-identity and per-host pids.
go run ./cmd/ptexplore -fleet fleet-lost-wakeup -lock-only -races -expect found
go run ./cmd/ptexplore -fleet fleet-lost-wakeup-fixed -lock-only -max-runs 60 -expect clean
go run ./cmd/ptexplore -fleet fleet-lost-wakeup-fixed -bound 2 -expect clean
go run ./cmd/ptexplore -fleet fleet-echo -check-replay
go run ./cmd/ptprof -fleet fleet-echo -check -q

# Fleet observability gates (DESIGN.md §14, E31). Span ids are pure
# functions of virtual state, so two spans-on exports of the same
# scenario must be byte-identical files; -check additionally proves
# the spans-off run schedules identically (observation never perturbs)
# and validates the span forest. The spans-off export layout is pinned
# by the golden gates above (spans are off by default everywhere) and
# by the exporter's nil-overlay byte-identity unit test.
go run ./cmd/ptprof -fleet fleet-echo -spans -check -q -chrome "$t/fleetspans1.json"
go run ./cmd/ptprof -fleet fleet-echo -spans -q -chrome "$t/fleetspans2.json"
cmp "$t/fleetspans1.json" "$t/fleetspans2.json"

# The spans gate (0 allocations per echo round trip with the recorder
# absent, and the same rounds taking the same virtual time spans on and
# off) is TestEchoLadderZeroAllocs, run by `go test ./...` above.

# Observer outputs pinned across commits (a second run of one build
# only proves determinism): the profiler's JSON and Chrome exports of
# every profile workload, `ptreport -fleet` and `-profile`, and the
# fleet spans export must match the sha256 sums in
# scripts/golden/observers.sha256.
for w in webserver inversion inversion-inherit inversion-ceiling deadlock; do
  go run ./cmd/ptprof -workload "$w" -q -json "$t/prof-$w.json" -chrome "$t/prof-$w.chrome.json"
done
go run ./cmd/ptreport -fleet > "$t/ptreport-fleet.txt"
go run ./cmd/ptreport -profile > "$t/ptreport-profile.txt"
go run ./cmd/ptprof -fleet fleet-echo -spans -q -chrome "$t/fleet-echo-spans.chrome.json"
(cd "$t" && sha256sum -c --quiet -) < scripts/golden/observers.sha256

# Perf-regression gate: benchdiff must fail the planted 6-regression
# fixture (vus/op, allocs/op, ns/op, the c1m runner-pool and
# bytes-per-resident plants, and a c10k dispatch row that is not flat),
# pass the within-tolerance fixture, and pass the checked-in
# BENCH_host.json history and c10k section.
if scripts/benchdiff cmd/ptbench/testdata/regression.json; then
  echo "benchdiff: failed to flag the planted regressions" >&2; exit 1
fi
scripts/benchdiff cmd/ptbench/testdata/clean.json
scripts/benchdiff
rm -rf "$t"
