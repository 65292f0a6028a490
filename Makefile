.PHONY: all test bench gridcheck tracecheck cubeops servicecheck bench-service aigcheck bench-aig ci doc clean

all:
	dune build @all

test:
	dune runtest

# Determinism gate over one grid: every quick (circuit, method) cell
# runs once at each of jobs {1, 2, 8, max} x memo {on, off} x DC view
# {none, empty}, plus the DC-rich fixture with its own view, and five
# predicate families read the stored results: jobs=1 vs jobs=max
# (exit 4), memo on vs off with live/inert counters (exit 6), the
# whole grid vs the jobs=1 memo-on reference with the quick totals
# pinned at 245/241/239/235 (exit 7), empty views invisible and the
# fixture's DC runs deterministic and above their floors (exit 8),
# BDD-verified references with resub-k <= 239 and its construction CPU
# below ext's division CPU (exit 10).
gridcheck:
	dune exec bench/main.exe -- gridcheck quick

# Degraded-run robustness gate: rerun the quick rows with a tiny fault
# budget and a trace file, then lint every trace line as JSON and check
# the degraded results are still equivalent.
tracecheck:
	dune exec bench/main.exe -- tracecheck quick

# Packed cube kernel vs the seed's list cubes: containment and
# intersection throughput on synthetic multi-word covers.
cubeops:
	dune exec bench/main.exe -- cubeops

# Resident-service gate: start an in-process rarsubd, run a scripted
# miss/hit/bypass sequence over the quick cells, assert every response
# is byte-identical to the cold reference run, the cache counters are
# exact, and malformed/oversized frames are refused without downing the
# daemon.
servicecheck:
	dune exec bench/main.exe -- servicecheck quick

# Throughput/latency snapshot for the resident service: one cold pass,
# then 8 concurrent clients replaying the workload warm. Writes
# BENCH_service.json (committed); fails if warm repeats are not at
# least 5x faster than cold.
bench-service:
	dune exec bench/main.exe -- service quick

# AIG backend gate: AIGER write/parse fixpoint, parse = compact, and
# index-list round trips on the bundled .aag fixtures, then windowed
# resubstitution at jobs in {1, 4} asserting byte-identical output,
# a never-increasing gate count, and simulation equivalence through
# the Network bridge.
aigcheck:
	dune exec bench/main.exe -- aigcheck

# Windowed-resub snapshot at real-benchmark scale: three generated
# circuits of 12k-24k gates, gates/literals before and after plus wall
# seconds. Writes BENCH_aig.json (committed).
bench-aig:
	dune exec bench/main.exe -- aig

# Full local CI: build, tests, the one-grid determinism gate (jobs,
# memo, sharding, external don't cares and constructive k-resub, with
# the pinned quick totals), the degraded-run/trace gate, the
# cube-kernel microbenchmark, the resident-service miss/hit
# byte-identity gate, the AIG backend round-trip and windowed-resub
# determinism gate, and the quick machine-readable perf snapshot
# (writes BENCH_resub.json for cross-PR trajectory tracking; fails if
# total cpu_seconds — including the multi-pass script benchmark —
# regresses >20% vs the previous snapshot at jobs=1).
ci:
	dune build @all
	dune runtest
	dune exec bench/main.exe -- gridcheck quick
	dune exec bench/main.exe -- tracecheck quick
	dune exec bench/main.exe -- cubeops
	dune exec bench/main.exe -- servicecheck quick
	dune exec bench/main.exe -- aigcheck
	dune exec bench/main.exe -- bench quick

bench:
	dune exec bench/main.exe

doc:
	dune build @doc

clean:
	dune clean
