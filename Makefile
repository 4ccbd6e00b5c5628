# Convenience targets; everything is plain dune underneath.

.PHONY: all build test perf-smoke bench figures examples chaos crash-chaos partition partition-smoke lease cache cache-smoke batch scale scale-smoke ship ship-smoke escrow escrow-smoke determinism profile check-links doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# One short untraced run of each perfbench workload (see perfbench/README.md).
# Fails unless each run's last line, a JSON summary, reports
# "correct": true and "failed": 0. Reads the benchmark; never edits it.
PERF_WORKLOADS = stream-64 web-read bank-escrow lossy-levers

perf-smoke:
	@for w in $(PERF_WORKLOADS); do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$last" | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); \
			print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); \
			sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' $$w \
			|| { echo "perf-smoke: $$w did not verify"; exit 1; }; \
	done

bench:
	dune exec bench/main.exe

figures:
	dune exec bin/lotec_sim.exe -- figures

chaos:
	dune exec bin/lotec_sim.exe -- chaos

# Crash-recovery sweep: fail-stop crash windows x protocols x GDO replica
# counts; asserts every root commits or permanently aborts, the wire ledger
# reconciles exactly and the run never stalls.
crash-chaos:
	dune exec bin/lotec_sim.exe -- chaos --crash

# The lever sweeps: one lever (see Experiments.Ab) against its baseline
# mode over the lever's protocols x axis points x modes. Every row asserts
# serializability, root accounting, exact wire-ledger reconciliation and
# all-zero counters for each subsystem left off. The *-smoke targets run
# the LOTEC rows with --gate: the thresholds live with the lever
# (lib/experiments/*.ml), and the command exits 1 when one is missed.

# Read leases: off vs ttl vs adaptive across read-only method fractions.
lease:
	dune exec bin/lotec_sim.exe -- ab lease

# Method-result cache: baseline vs lease-only vs lease+cache on the
# web-serving workload. Writes BENCH_cache.json.
cache:
	dune exec bin/lotec_sim.exe -- ab cache --json BENCH_cache.json

# CI gate: the cached LOTEC rows reach a 50% hit rate and a 5x total
# message reduction (vs everything-off) at a >= 0.95 request read share.
cache-smoke:
	dune exec bin/lotec_sim.exe -- ab cache -p lotec --gate --json BENCH_cache.json

# Message combining: batching off vs all under light loss (riders must
# reconcile in the wire ledger). Writes BENCH_batch.json.
batch:
	dune exec bin/lotec_sim.exe -- ab batch --json BENCH_batch.json

# Scale sweep: engine micro-benchmarks plus the default 100k/300k/1M-root
# streaming runs across all four protocols. Writes BENCH_engine.json.
scale:
	dune exec bin/lotec_sim.exe -- scale --engine-bench --json BENCH_engine.json

# Two fixed points for CI: 10k and 40k roots over 64 nodes per protocol,
# so streaming state recycling runs at two run lengths. A conservative
# events/sec floor (measured ~1.5-1.8M on a 2-vCPU dev machine; the floor
# leaves ~10x headroom for slow CI runners) and a heap ceiling of twice
# the measured process peak (76.4 MB after the 40k points).
scale-smoke:
	dune exec bin/lotec_sim.exe -- scale --roots 10000 --nodes 64 --roots 40000 --nodes 64 \
		--assert-min-events-per-sec 100000 --assert-max-heap-mb 153 \
		--json BENCH_engine.json

# Function shipping vs the data-ship baseline: every protocol x locality
# skew x software cost. Writes BENCH_ship.json.
ship:
	dune exec bin/lotec_sim.exe -- ab ship --json BENCH_ship.json

# CI gate: at the strongest skew and the cheapest messaging, LOTEC with
# shipping moves >= 30% fewer bytes than its data-ship baseline with
# completion no worse than +2%.
ship-smoke:
	dune exec bin/lotec_sim.exe -- ab ship -p lotec --gate --json BENCH_ship.json

# Escrow delta locks vs the exclusive-locking baseline on the bank
# workload: every protocol x Zipf skew. Writes BENCH_escrow.json.
escrow:
	dune exec bin/lotec_sim.exe -- ab escrow --json BENCH_escrow.json

# CI gate: at the hottest skew, LOTEC with escrow cuts completion time by
# >= 25% vs its exclusive-locking baseline.
escrow-smoke:
	dune exec bin/lotec_sim.exe -- ab escrow -p lotec --gate --json BENCH_escrow.json

# Sampling profiler over one streaming scale point: prints the top self and
# inclusive frames. A diagnostic, not a gate; CI does not run it. Override
# the point with e.g. PROF_ARGS="100000 64 lotec" (roots, nodes, protocol).
PROF_ARGS = 40000 64 lotec

profile:
	dune exec tools/prof/prof.exe -- $(PROF_ARGS)

# Re-run the deterministic goldens with OCaml's randomized hashing turned
# on (OCAMLRUNPARAM=R): any Hashtbl-iteration-order leak into dumps,
# traces or metrics shows up as a golden mismatch.
determinism:
	OCAMLRUNPARAM=R dune exec test/determinism/main.exe

# Partition / gray-failure nemesis: partition, one-way-cut and slow-link
# schedules x protocols x replica counts against the quorum membership
# protocol. Every case asserts no split-brain (directory + acting-home
# audit), exact wire reconciliation, and — on the false-suspicion
# schedules — a forced false declaration followed by message-driven
# readmission. Writes BENCH_partition.json.
partition:
	dune exec bin/lotec_sim.exe -- partition --json BENCH_partition.json

# CI gate: the two forced-false-declaration schedules on LOTEC, both
# replica settings. The sweep exits nonzero on any violated invariant.
partition-smoke:
	dune exec bin/lotec_sim.exe -- partition -p lotec \
		--schedule minority-iso --schedule false-suspicion \
		--json BENCH_partition.json

# Fail on intra-repo markdown links pointing at missing files or at
# anchors that no heading generates. CI runs this next to the doc build.
check-links:
	./tools/check_md_links.sh

# API docs. odoc warnings are fatal (root dune env stanza), so a broken
# {!reference} fails the build — CI runs this; locally it skips gracefully
# when odoc is not installed.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc && echo "docs at _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build (opam install odoc)"; \
	fi

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bank.exe
	dune exec examples/cad_assembly.exe
	dune exec examples/network_sweep.exe
	dune exec examples/recursion_policy.exe

clean:
	dune clean
