#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Everything runs against the vendored/shimmed workspace — no network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> size, reported and not gated: non-test lines of crates/*/src (each file up to its first column-0 #[cfg(test)], and no file whose mod is declared under one) and the pub fns among them"
files=$(find crates/*/src -name '*.rs' | sort)
test_mods=$(awk '
    FNR == 1 { prev = "" }
    prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+;/ {
        name = $0; sub(/^(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
        dir = FILENAME; sub(/[^\/]*$/, "", dir)
        stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
        if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
        print dir name ".rs"; print dir name "/mod.rs"
    }
    { prev = $0 }' $files)
printf '%s\n' "$files" | grep -vxF -e "$test_mods" | xargs awk '
    FNR == 1 { code = 1 }
    /^#\[cfg\(test\)\]/ { code = 0 }
    code { lines++; if ($0 ~ /^[[:space:]]*pub fn /) fns++ }
    END { printf "  non-test lines: %d\n  pub fn: %d\n", lines, fns }'

echo "==> the size line sees all non-test code: past a file's first column-0 #[cfg(test)], every column-0 item carries its own #[cfg(test)]"
printf '%s\n' "$files" | xargs awk '
    FNR == 1 { tested = 0; guarded = 0 }
    /^#\[cfg\(test\)\]/ { tested = 1; guarded = 1; next }
    /^(#\[|\/\/)/ { next }
    tested && !guarded && /^(pub|fn|impl|struct|enum|mod|const|trait|type|static|unsafe|use|macro_rules)([^A-Za-z0-9_]|$)/ {
        printf "  %s:%d: non-test item after the test code: %s\n", FILENAME, FNR, $0; bad = 1
    }
    { guarded = 0 }
    END { exit bad }'

echo "==> unsafe inventory: every workspace crate but arv-view-server and arv-persist forbids unsafe code, and non-test unsafe blocks sit only in view-server's sys.rs (the FFI) and persist's crc32.rs (exactly one: the call into the carry-less-multiply kernel)"
unsafe_ok=1
for lib in crates/*/src/lib.rs tests/src/lib.rs; do
    case "$lib" in crates/view-server/* | crates/persist/*) continue ;; esac
    grep -qx '#!\[forbid(unsafe_code)\]' "$lib" || { echo "  $lib does not forbid unsafe code"; unsafe_ok=0; }
done
unsafe_blocks=$(printf '%s\n' "$files" | grep -vxF -e "$test_mods" | xargs awk '
    FNR == 1 { code = 1 }
    /^#\[cfg\(test\)\]/ { code = 0 }
    code && $0 !~ /^[[:space:]]*\/\// && $0 ~ /(^|[^A-Za-z0-9_])unsafe[[:space:]]*\{/ { n[FILENAME]++ }
    END { for (f in n) print f, n[f] }')
crc_blocks=0
while read -r file count; do
    case "$file" in
        "" | crates/view-server/src/sys.rs) ;;
        crates/persist/src/crc32.rs) crc_blocks=$count ;;
        *) echo "  $file holds $count non-test unsafe blocks"; unsafe_ok=0 ;;
    esac
done <<< "$unsafe_blocks"
test "$crc_blocks" -eq 1 || { echo "  crates/persist/src/crc32.rs holds $crc_blocks unsafe blocks, not 1"; unsafe_ok=0; }
test "$unsafe_ok" -eq 1

echo "==> cargo clippy --workspace --all-targets (libraries, tests, examples, benches; one SAFETY comment per single-op unsafe block)"
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D clippy::multiple_unsafe_ops_per_block

echo "==> cargo clippy --lib (no unwraps in any library outside the experiment, bench and integration-test harnesses)"
cargo clippy --workspace --exclude arv-experiments --exclude arv-bench --exclude arv-integration-tests --lib -- -D warnings -D clippy::unwrap_used

echo "==> cargo test -q (every crate, the e2e suites under tests/ among them)"
cargo test -q

echo "==> every example, once, in release (each asserts its own accounting before exiting)"
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    echo "  -> $example"
    cargo run -q --release -p arv-experiments --example "$example" > /dev/null
done

echo "==> every listed figure at full scale, the campaigns at seed offset 0 among them (the case studies read their views through each host's own viewd)"
cargo run -q --release -p arv-experiments --bin experiments -- --all > /dev/null

# The seed sweep: the two campaigns, each on its base seeds and on
# rotated ones; every scenario runs twice per seed and must replay
# bit-identically. A failing seed prints its campaign's report, then
# names the scenario, the seed and each ledger row it broke: the log
# keeps a campaign's report only when it fails.
campaign() {
    local report
    report=$(cargo run -q --release -p arv-experiments --bin experiments -- "$@") \
        || { printf '%s\n' "$report"; return 1; }
}
echo "==> host and fleet campaigns at half scale, seed offsets 0-31 (host: stall, publish outage, warm restart, provenance, event loss, wire chaos, torn journals, flood; fleet: scale, waterfalls, storage soak, storm and split-brain takeovers)"
for offset in $(seq 0 31); do
    campaign --fig host --scale 0.5 --seed-offset "$offset"
    campaign --fig fleet --scale 0.5 --seed-offset "$offset"
done

echo "==> fleet campaign at full scale, seed offsets 1-15 (1000 hosts × 100 containers, every scenario replayed; offset 0 ran under --all)"
for offset in $(seq 1 15); do
    campaign --fig fleet --seed-offset "$offset"
done

echo "==> host campaign at full scale, seed offsets 1-15 (lifecycle calls inside a stall, warm restarts, every scenario replayed; offset 0 ran under --all)"
for offset in $(seq 1 15); do
    campaign --fig host --seed-offset "$offset"
done

echo "==> invariant ledger, both ways (every check DESIGN §10 names is a fn under crates/ or tests/, an arv-bench gate or a claim; every claim under crates/experiments/src is one §10 row, made once; every campaign row is a claim, or names replay or the gate that holds it)"
ledger=$(sed -n '/^## 10\. The invariant ledger/,/^## /p' DESIGN.md | grep '^| ' || true)
row_id='[a-z]+\.[a-z_]+\.[0-9]+'
rows=$(printf '%s\n' "$ledger" | awk -F' [|] ' '{print substr($1, 3)}' | grep -xE "$row_id" || true)
claims=$(awk 'FNR == 1 { code = 1 } /^#\[cfg\(test\)\]/ { code = 0 } code' crates/experiments/src/*.rs \
    | grep -oE "\"$row_id\"" | tr -d '"' || true)
gate() { grep -rqF "\"$1\"" crates/bench/benches; }
test -n "$rows" && test -n "$claims" || { echo "DESIGN §10 has no campaign rows, or crates/experiments/src no claims"; exit 1; }
missing=0
for id in $(printf '%s\n' "$claims" | sort | uniq -d); do
    echo "claimed more than once: ${id}"
    missing=1
done
for id in $claims; do
    printf '%s\n' "$rows" | grep -qxF "$id" || { echo "a claim names no §10 row: ${id}"; missing=1; }
done
while IFS= read -r row; do
    id=$(printf '%s\n' "$row" | awk -F' [|] ' '{print substr($1, 3)}')
    printf '%s\n' "$rows" | grep -qxF "$id" || continue
    printf '%s\n' "$claims" | grep -qxF "$id" && continue
    held=$(printf '%s\n' "$row" | awk -F'|' '{print $(NF-1)}' | grep -o '`[^`]*`' | tr -d '`' || true)
    ok=0
    for check in $held; do
        if [ "$check" = replay ] || gate "$check"; then ok=1; fi
    done
    test "$ok" -eq 1 || { echo "a campaign row is no claim and names neither replay nor a gate: ${id}"; missing=1; }
done <<< "$ledger"
checks=$(printf '%s\n' "$ledger" | awk -F'|' '{print $(NF-1)}' | grep -o '`[^`]*`' | tr -d '`' | sort -u || true)
test -n "$checks" || { echo "DESIGN §10 names no checks"; exit 1; }
for check in $checks; do
    if ! grep -rqE "fn ${check}([^A-Za-z0-9_]|$)" crates tests && ! gate "$check" \
            && ! printf '%s\n' "$claims" | grep -qxF "$check"; then
        echo "ledger names an undefined check: ${check}"
        missing=1
    fi
done
test "$missing" -eq 0

echo "==> DESIGN, README and EXPERIMENTS name only what exists (each backticked identifier of 5+ characters, and each segment of a backticked path, occurs under crates/, tests/, examples/ or arv-benchmark/, or is a kernel or paper name)"
allowed="EPOLLET Ns_Monitor"
sources=$(find crates tests examples arv-benchmark -name target -prune -o -type f -print)
unknown=0
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    names=$(grep -o '`[^`]*`' "$doc" | tr -d '`' \
        | grep -xE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*' | tr -s ':' '\n' \
        | grep -xE '[A-Za-z_][A-Za-z0-9_]{4,}' | sort -u || true)
    test -n "$names" || { echo "$doc names no identifiers"; exit 1; }
    for name in $names; do
        case " $allowed " in *" $name "*) continue ;; esac
        if ! grep -qF -- "$name" $sources && ! printf '%s\n' "$sources" | grep -qF -- "$name"; then
            echo "$doc names what nothing defines or mentions: ${name}"
            unknown=1
        fi
    done
done
test "$unknown" -eq 0

# core: NsMonitor::tick linear scaling, ledger record growth; viewd: hit /
# re-stamped miss / first render ratios; fleet: resync + failover ticks,
# REPL lag, rollup growth, obs overhead, index update growth, unsorted
# FULL, quarter-update ratio; persist: append + replay growth, faulty
# store, each CRC kernel's speedup over a byte-at-a-time CRC; wire:
# 5k-connection fanout. Each writes BENCH_<name>.json and exits nonzero
# on a failed gate or a non-finite value.
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
