#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Everything runs against the vendored/shimmed workspace — no network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (libraries, tests, examples, benches; one SAFETY comment per single-op unsafe block)"
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D clippy::multiple_unsafe_ops_per_block

echo "==> cargo clippy --lib (no unwraps in any library outside the experiment, bench and integration-test harnesses)"
cargo clippy --workspace --exclude arv-experiments --exclude arv-bench --exclude arv-integration-tests --lib -- -D warnings -D clippy::unwrap_used

echo "==> cargo test -q"
cargo test -q

echo "==> fault-pipeline e2e (wire kill/restart under concurrent readers)"
cargo test -q -p arv-integration-tests --test fault_pipeline_e2e

echo "==> fleet e2e (multi-periphery ingest under racing rollup readers)"
cargo test -q -p arv-integration-tests --test fleet_e2e

echo "==> fleet failover e2e (replicated pair, primary killed mid-stream)"
cargo test -q -p arv-integration-tests --test fleet_failover_e2e

echo "==> wire reactor e2e (hundreds of racing/slow/hostile clients on one daemon)"
cargo test -q -p arv-integration-tests --test wire_reactor_e2e

echo "==> every example, once, in release (each asserts its own accounting before exiting)"
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    echo "  -> $example"
    cargo run -q --release -p arv-experiments --example "$example" > /dev/null
done

echo "==> the paper's figures at full scale (the case studies read their views through sysconf)"
cargo run -q --release -p arv-experiments --bin experiments -- \
    --fig 2a --fig 2b --fig 6 --fig 7 --fig 8 --fig 9 --fig 10 --fig 11 --fig 12 \
    --fig ablations --fig accuracy > /dev/null

echo "==> chaos experiment (seeded fault injection, replay-checked)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig chaos --scale 0.5 > /dev/null

echo "==> observability experiment (provenance replay + trace-overhead budget)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig obs --scale 0.5 > /dev/null

echo "==> recovery experiment (journaled warm restart + admission-controlled flood)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig recovery --scale 0.5 > /dev/null

echo "==> fleet experiment (core↔periphery aggregation, partitions, controller failover)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleet --scale 0.5 > /dev/null

echo "==> fleet experiment, rotated seeds (failover/split-brain must hold beyond the canonical seeds)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleet --scale 0.5 --seed-offset 1 > /dev/null

echo "==> fleet observability experiment (waterfalls vs ground truth, bit-identical flight dumps, overhead budget)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleetobs --scale 0.5 > /dev/null

echo "==> fleet observability experiment, rotated seeds"
cargo run -q --release -p arv-experiments --bin experiments -- --fig fleetobs --scale 0.5 --seed-offset 1 > /dev/null

echo "==> storm campaign (storage faults composed with every fleet axis, durability ladder gated)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig storm --scale 0.5 > /dev/null

echo "==> storm campaign, rotated seeds (the ladder must hold beyond the canonical seeds)"
cargo run -q --release -p arv-experiments --bin experiments -- --fig storm --scale 0.5 --seed-offset 1 > /dev/null

# core: NsMonitor::tick linear scaling, ledger record growth; viewd: hit /
# re-stamped miss / first render ratios; fleet: resync + failover ticks,
# REPL lag, rollup growth, obs + journal overhead, index update growth,
# unsorted FULL; persist: append + replay growth, faulty store; wire:
# 5k-connection fanout. Each writes BENCH_<name>.json and
# exits nonzero on a failed gate or a non-finite value.
for bench in core viewd fleet persist wire; do
    echo "==> $bench bench"
    cargo bench -q -p arv-bench --bench "$bench" > /dev/null
    test -s "BENCH_$bench.json" || { echo "BENCH_$bench.json missing"; exit 1; }
done

echo "==> arv-benchmark's own tests (contract + determinism: every pinned signature still compiles)"
cargo test -q --offline --manifest-path arv-benchmark/Cargo.toml

echo "==> arv-benchmark smoke run (all four workloads + probes, 2 s each; nonzero on a failed check or non-finite metric)"
cargo run --release --offline --quiet --manifest-path arv-benchmark/Cargo.toml --bin arv-benchmark -- --seconds 2 > /dev/null

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> ci: all green"
