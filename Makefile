.PHONY: all test bench-placer bench-placer-check \
	bench-paths bench-paths-check bench-parallel bench-incremental \
	bench-routability bench-multilevel bench-multilevel-check bench-all \
	steiner-table steiner-table-check clean

all:
	dune build

test:
	dune build && dune runtest

# Per-kernel timing of one full placement iteration at 1/2/4 worker
# domains; writes BENCH_placeriter.json at the repo root.
bench-placer:
	dune exec bench/main.exe -- placer-iter

# Assert the benchmark invariants CI relies on (Steiner maintenance no
# longer the largest per-iteration kernel, sub-kernel split present).
bench-placer-check: bench-placer
	python3 scripts/check_bench.py BENCH_placeriter.json

# Top-K path enumeration throughput vs K at 1/2/4 worker domains, with
# the lazy engine's candidate counters and the eager-reference speedup;
# writes BENCH_paths.json at the repo root.
bench-paths:
	dune exec bench/main.exe -- paths

# Assert the path-enumeration invariants CI relies on (candidate
# counters + chunking present, lazy >= 5x the eager reference at K=128).
bench-paths-check: bench-paths
	python3 scripts/check_bench.py BENCH_paths.json

# Fork-join executor: empty-body dispatch latency plus difftimer and
# full-iteration scaling at 1/2/4/8 worker domains; writes
# BENCH_parallel.json at the repo root.
bench-parallel:
	dune exec bench/main.exe -- parallel

# Incremental STA: pins re-evaluated and latency per what-if move batch
# vs a full Timer.run, with bit-identity enforced; writes
# BENCH_incremental.json at the repo root.
bench-incremental:
	dune exec bench/main.exe -- incremental

# Routability: a hotspot 5k-cell placement with the RUDY +
# cell-inflation loop off vs on at an equal iteration budget; writes
# BENCH_routability.json and gates the congestion/HPWL thresholds.
bench-routability:
	dune exec bench/main.exe -- routability
	python3 scripts/check_bench.py BENCH_routability.json

# Multilevel: flat engine vs coarsen/uncoarsen V-cycle at the 50k-cell
# bench point, plus a 200k-cell V-cycle end-to-end run; writes
# BENCH_multilevel.json at the repo root.
bench-multilevel:
	dune exec bench/main.exe -- multilevel

# Assert the multilevel invariants CI relies on (V-cycle >= 3x faster
# than flat at equal-or-better HPWL within 2%, 200k run completed).
bench-multilevel-check: bench-multilevel
	python3 scripts/check_bench.py BENCH_multilevel.json

# Every JSON-emitting benchmark in one go.
bench-all: bench-placer bench-paths bench-parallel bench-incremental \
	bench-routability bench-multilevel

# Regenerate the shipped Steiner topology table
# (lib/steiner/steiner_table.bin): every class of degree 2-8,
# class-parallel over STEINER_DOMAINS domains (~45 min on one core).
STEINER_DOMAINS ?= 2
steiner-table:
	dune exec tools/steiner_table.exe -- --domains $(STEINER_DOMAINS)

# Check the committed table against its generator: header, per-degree
# class counts and keys, and every class of degree <= 6 regenerated
# bytewise (a few seconds).
steiner-table-check:
	dune exec tools/steiner_table.exe -- --check lib/steiner/steiner_table.bin

clean:
	dune clean
