# Convenience targets for the FUIoV reproduction.

.PHONY: install test chaos bench bench-smoke bench-core bench-service bench-forest bench-slo bench-storage-scale bench-prefetch bench-live bench-report examples experiments telemetry-demo docs-lint clean

install:
	pip install -e . || python setup.py develop

# Default suite; includes the chaos scenarios with their default seed.
test:
	pytest tests/

# Sweep the fault-injection scenarios over several seeds; with
# CHAOS_SEEDS set, the forest-retirement liveness machine
# (tests/test_replay_cow.py) also runs at its large step budget, and
# seven bit-for-bit property tests run at their large example budgets:
# the replay cohort kernel's, the replay node's stacked form's and the
# replay round path's — stored block slice or take, chunked kernel
# tail, in-place FedAvg (tests/test_replay_cohort.py:
# test_kernel_matches_per_client_chain,
# test_node_form_matches_per_client_chain,
# test_round_path_matches_per_client_chain) — the one-pass sign
# encoder's (tests/test_storage_sign_codec.py:
# test_one_pass_encoder_matches_ternarize_then_pack), the training
# cohort pass's — row k of a stacked pass equals vehicle k's pass
# alone (tests/test_cohort_pass.py:
# test_cohort_rows_match_lone_passes) — and the synthetic datasets'
# chunked renders — every batched image equals its lone render, which
# equals the per-image renderer it replaced
# (tests/test_datasets_synthetic.py:
# test_chunked_batches_match_lone_renders,
# test_lone_renders_match_per_image_references) — and four more at
# 400 examples: three in tests/test_storage_round_major.py — the
# round-major container against a per-row model (ContainerMachine;
# kinds sign, full and tiered, the last with spill, flush, compact and
# reopen steps), a reader that never sees a torn round while a
# writer appends and drops (test_reader_never_sees_a_torn_round), and
# the ledger's participants memo against a brute-force scan
# (LedgerMachine) — and the replay's decode cache against its byte
# budget and the store under get, discard and clear
# (tests/test_storage_prefetch.py: DecodeCacheMachine).
chaos:
	CHAOS_SEEDS=7,21,99 pytest tests/ -m chaos

# The erasure ledger (BENCHMARK.json): four workloads, end-to-end and
# per-layer metrics, results under bench/out/.
bench:
	python3 bench/run.py

bench-smoke:
	REPRO_SCALE=smoke pytest benchmarks/ --benchmark-only

# Zero-copy numeric-core baseline: warm-step latency (legacy-emulated
# vs arena, >=1.5x asserted), per-step allocation bytes and end-to-end
# train+recover wall clock into benchmarks/results/core_numeric.json.
bench-core:
	pytest benchmarks/test_bench_core.py --benchmark-only

# Amortized erasure serving: 4-request batch vs 4 cold replays (bitwise
# identity and >=2x speedup asserted), cache hit rate and dict-vs-mmap
# store latency into benchmarks/results/service.json.
bench-service:
	pytest benchmarks/test_bench_service.py --benchmark-only

# Fused replay-forest sweep: K queued erasures served as one shared
# execution tree vs K cold replays (bitwise identity asserted at every
# batch size; speedup grows with K, >=10x asserted at K=32), per-batch
# rows into benchmarks/results/forest.json.
bench-forest:
	pytest benchmarks/test_bench_forest.py --benchmark-only

# Erasure daemon SLO harness: steady / mass-GDPR burst / recovery
# phases against the serving daemon (>=200 req/s sustained, bounded
# p99, nonzero shed rate past saturation asserted), per-phase
# latency/throughput/shed rows into benchmarks/results/slo.json.
bench-slo:
	pytest benchmarks/test_bench_slo.py --benchmark-only

# Tiered-store capacity sweep: >=100k distinct clients ingested under
# a small hot budget (bounded peak allocation asserted), per-tier
# bytes/client/round, hit and latency rows, and >=2x cold compression
# into benchmarks/results/storage_scale.json.
bench-storage-scale:
	pytest benchmarks/test_bench_storage_scale.py --benchmark-only

# Pipelined replay data path: prefetch-on vs -off byte identity over
# every sign backend, >=1.3x replay speedup on the storage-bound
# (latency-modelled cold-tier) workload, and shared decode-cache hits
# at daemon concurrency 4 into benchmarks/results/prefetch.json.
bench-prefetch:
	pytest benchmarks/test_bench_prefetch.py --benchmark-only

# Live-traffic path: train + erase concurrently vs stop-the-world —
# >=2x aggregate throughput, <=25% training slowdown while erasures
# are in flight, and byte identity of the first replay-merge commit
# vs the sequential reference, into benchmarks/results/live.json.
bench-live:
	pytest benchmarks/test_bench_live.py --benchmark-only

# Aggregate benchmarks/results/*.json into results/summary.json
# (benchmark name, headline metric, speedup where present).
bench-report:
	python benchmarks/report.py

examples:
	python examples/quickstart.py
	python examples/storage_savings.py
	python examples/poisoning_recovery.py
	python examples/detect_and_unlearn.py
	python examples/unlearning_service.py
	python examples/dynamic_iov.py
	python examples/chaos_resilience.py
	python examples/telemetry_demo.py
	python examples/parallel_speedup.py
	python examples/erasure_throughput.py

# Instrumented train -> forget -> recover run; writes telemetry-demo/
# (events.jsonl, metrics.prom, metrics.csv, summary.txt).
telemetry-demo:
	python examples/telemetry_demo.py

# Docs contract: catalog <-> docs/METRICS.md must agree both ways, and
# every `make <target>` referenced in the docs must exist here.
docs-lint:
	pytest tests/test_metrics_docs.py -q

experiments:
	python -m repro.eval all --out results/

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
