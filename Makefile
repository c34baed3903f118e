.PHONY: all test bench-paths bench-parallel steiner-table steiner-table-check \
	clean

all:
	dune build

test:
	dune build && dune runtest

# Lazy top-K path enumeration throughput vs K at 1/2/4 worker domains,
# with the engine's candidate counters and chunk counts (printed table).
bench-paths:
	dune exec bench/main.exe -- paths

# Fork-join executor dispatch latency (empty bodies) at 1/2/4/8 worker
# domains (printed table).
bench-parallel:
	dune exec bench/main.exe -- parallel

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
