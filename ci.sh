#!/usr/bin/env bash
# Offline CI gate: build, test, and keep the pipeline library crates free
# of new abort sites. No network access required (Cargo.lock is committed
# and all dependencies are vendored in the toolchain image).
set -euo pipefail
cd "$(dirname "$0")"

# Both steps cover the whole workspace (the root manifest lists every
# crate under `default-members`): every crate's unit tests and every
# `crates/*/tests/` suite run here, not only the root package's.
echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

# The compile pipeline must degrade, never abort: deny unwrap/panic in
# the library code of every workspace crate the pipeline runs through,
# including the analysis stack (deps/math/dl/cachesim/polybench) and the
# certifier. `--no-deps` keeps each crate linted at its own level. The
# crates whose library code has no `.expect(` left also deny that, so
# their count stays at zero (ROADMAP item 5).
echo "== clippy abort-site gate =="
NO_EXPECT="polymix-cachesim polymix-core polymix-deps polymix-pluto polymix-runtime \
polymix-service polymix-verify polymix-vm"
for c in polymix-math polymix-ir polymix-deps polymix-dl polymix-ast \
         polymix-codegen polymix-verify polymix-pluto polymix-core \
         polymix-runtime polymix-cachesim polymix-polybench polymix-vm \
         polymix-bench polymix-service; do
    echo "-- $c"
    EXPECT=
    case " $NO_EXPECT " in *" $c "*) EXPECT="-D clippy::expect_used" ;; esac
    cargo clippy --lib --no-deps -p "$c" -- \
        -D clippy::unwrap_used -D clippy::panic $EXPECT
done

# polymix-runtime has one configuration: its fault-injection and
# order-checking suites are plain tier-1 tests (body adapters, no process
# state), so nothing here passes `--features` or serialises test threads.
# Keep it that way: no Cargo feature, no cfg on one, no tuning env var.
# And one implementation: only `kernel_rt.rs` spawns or parks workers;
# everything else in the crate is a wrapper over it.
echo "== runtime surface gate =="
if git grep -n 'POLYMIX_\(POOL\|PIPE_BATCH\|SPIN_LIMIT\)\|cfg(feature' -- crates/runtime \
    || grep -n '^\[features\]' crates/runtime/Cargo.toml; then
    echo "polymix-runtime grew a second configuration"; exit 1
fi
if git grep -n 'thread::scope\|thread::spawn\|thread::Builder\|Condvar' -- crates/runtime/src \
    ':!crates/runtime/src/kernel_rt.rs'; then
    echo "polymix-runtime grew a second executor outside kernel_rt.rs"; exit 1
fi

# The tuner's unit is a program: the emitter's automatic publish batch
# and doall grain are the only rules, so no runtime-knob override may come
# back into the code under crates/ (quoted JSON keys in the legacy-config
# test do not match these patterns).
echo "== runtime knob gate =="
if git grep -n -E 'pipeline_batch:|\.pipeline_batch|dyn_grain:|\.dyn_grain|unmodeled_knobs|EmitKnobs|UNMODELED_KNOBS' \
    -- 'crates/*.rs'; then
    echo "a deleted runtime knob is back"; exit 1
fi

# Static certification gate: every (kernel, variant) artifact the
# sweeps measure — the transformed program and its emitted source —
# must certify (schedule legality, annotation safety, source protocol
# lint) before anything is compiled or executed. The audit ends with a
# census of the kernel_rt calls it saw; each of the four constructs must
# still have traffic, or an emitter path has silently gone dead.
echo "== static verify gate =="
VERIFY_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- --dataset mini) \
    || { echo "$VERIFY_OUT" | grep -v '^ok'; exit 1; }
CENSUS=$(echo "$VERIFY_OUT" | grep '^regions: ') \
    || { echo "static audit printed no region census"; exit 1; }
echo "$CENSUS"
echo "$CENSUS" | grep -Eq \
    '^regions: doall [1-9][0-9]* reduction [1-9][0-9]* pipeline [1-9][0-9]* wavefront [1-9][0-9]*$' \
    || { echo "a parallel construct lost all its traffic"; exit 1; }
# Same idea for the tiling stage: the audit sums what `tile_nest` reported
# for every nest it tiled. Each of its three forms must still be taken
# somewhere, and the number of statements left under a loop that was not
# strip-mined must not rise above the committed one (341 since ISSUE 21;
# 459 before the sunk form) — lower it here when a change tiles more.
TILING=$(echo "$VERIFY_OUT" | grep '^tiling: ') \
    || { echo "static audit printed no tiling census"; exit 1; }
echo "$TILING"
echo "$TILING" | grep -Eq \
    '^tiling: joint [1-9][0-9]* chains [1-9][0-9]* sunk [1-9][0-9]* untiled-levels [0-9]+$' \
    || { echo "a tiling form lost all its traffic"; exit 1; }
[ "${TILING##* }" -le 341 ] \
    || { echo "statements lost tile coverage: untiled-levels ${TILING##* } > 341"; exit 1; }
# The audit above only ever exits 0; its other two exits are gated here.
# A kernel name that matches nothing is a usage error (2), not an audit
# of nothing. And `--strict` on the two kernels with coverage notes
# fails (1) with four notes on each poly+ast row — the only place real
# kernels print a dependence vector, which the certifier classifies
# only once a violation is being built.
RC=0; cargo run --release -q -p polymix-bench --bin verify -- --dataset mini nosuchkernel \
    > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || { echo "verify: unknown kernel name exited $RC, expected 2"; exit 1; }
RC=0; STRICT_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- \
    --dataset mini --strict cholesky trisolv) || RC=$?
[ "$RC" -eq 1 ] && [ "$(echo "$STRICT_OUT" | grep -c '\[poly+ast\] .* notes 4$')" -eq 2 ] \
    && [ "$(echo "$STRICT_OUT" | grep -c '^ *\[unsupported\] .* vector \[')" -eq 8 ] \
    || { echo "$STRICT_OUT" | grep -v '^ok'; echo "strict audit: exit $RC, expected 1 with 2x4 notes"; exit 1; }

# Oracle memo gate, in both profiles. The certifiers above trust
# `is_empty`/`sample` answers served from the call-scoped memo, so its
# invisibility tests must hold with and without debug assertions; the
# `classify` overflow is an abort in debug and a wrap in release; and
# the pinned distinct-question counts must not depend on the debug-only
# certify hook inside the optimizers. The emptiness kernel under all of
# them saturates and checks its arithmetic, and its overflow exits differ
# between the profiles too: its unit and property tests (never a false
# proof; the certifier systems that must be proven) and the emitted-byte
# digest of the 41 `compile` cells run in both.
echo "== oracle tests (debug + release) =="
for profile in "" --release; do
    cargo test -q $profile -p polymix-math --lib
    cargo test -q $profile -p polymix-math -p polymix-deps -p polymix \
        --test memo --test classify_overflow --test oracle_memo_counts \
        --test emitted_digest
done

# Bytecode certification gate: every (kernel, variant) cell the vm
# backend could measure is lowered at mini and run through the bytecode
# certifier (bounds proofs + effect-summary cross-check). The audit must
# certify every artifact AND prove every access it reached, of a nonzero
# number — an all-skip run would pass vacuously, and an access left
# unproven keeps its dynamic check on the elided fast path.
echo "== bytecode certification gate =="
VM_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- \
    --dataset mini --backend vm)
PROVEN=$(echo "$VM_OUT" | sed -n 's|^vm accesses proven: \([1-9][0-9]*\)/\([0-9]*\)$|\1 \2|p')
[ -n "$PROVEN" ] && [ "${PROVEN% *}" -eq "${PROVEN#* }" ] \
    || { echo "bytecode audit left accesses unproven: '$PROVEN'"; exit 1; }

# Fast end-to-end sweep smoke test: one kernel through the parallel
# executor (2 jobs, tmpdir cache, JSONL log), then the same invocation
# again, which must resume every job from the log.
echo "== sweep smoke test =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
for pass in run resume; do
    echo "-- table1 mini sweep ($pass)"
    POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
        cargo run --release -q -p polymix-bench --bin table1 -- \
        --dataset mini --jobs 2 --run-timeout 120 \
        --results "$SMOKE_DIR/table1.jsonl" > /dev/null
done
# One record per variant from the first pass; the resume pass must add
# nothing (every job replayed from the log).
RECORDS=$(wc -l < "$SMOKE_DIR/table1.jsonl")
[ "$RECORDS" -eq 4 ] || { echo "expected exactly 4 JSONL records, got $RECORDS"; exit 1; }

# Backend smoke: the same table measured by both backends — 8 JSONL
# records (one per variant per backend, keyed `(id, backend)`), with
# both backend tags present so an interrupted `both` sweep can never
# cross-satisfy a vm cell from a rustc record or vice versa.
echo "== backend smoke test =="
POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
    cargo run --release -q -p polymix-bench --bin table1 -- \
    --dataset mini --jobs 2 --run-timeout 120 --backend both \
    --results "$SMOKE_DIR/backends.jsonl" > /dev/null
B_RECORDS=$(wc -l < "$SMOKE_DIR/backends.jsonl")
[ "$B_RECORDS" -eq 8 ] || { echo "expected 8 backend records, got $B_RECORDS"; exit 1; }
grep -q '"backend":"vm"' "$SMOKE_DIR/backends.jsonl" \
    || { echo "no vm-tagged records"; exit 1; }
grep -q '"backend":"rustc"' "$SMOKE_DIR/backends.jsonl" \
    || { echo "no rustc-tagged records"; exit 1; }

# Small-budget tuner smoke: one kernel at mini through the closed-loop
# search, then `table1 --tuned` loading (and thereby parsing) the
# committed config — the 5th "tuned (...)" row proves the round trip.
echo "== tuner smoke test =="
POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
    cargo run --release -q -p polymix-bench --bin tune -- \
    --kernels 2mm --dataset mini --budget 6 --jobs 2 --run-timeout 120 \
    --out "$SMOKE_DIR/tuned" --results "$SMOKE_DIR/tune.jsonl" > /dev/null
[ -s "$SMOKE_DIR/tuned/2mm.json" ] || { echo "tuner produced no config"; exit 1; }
grep -q '"speedup_vs_native"' "$SMOKE_DIR/tuned/2mm.json" \
    || { echo "tuned config missing measurement fields"; exit 1; }
# Every screened cell is a distinct program, and rustc confirms at most
# one CONFIRM_TOP prefix per ranking plus the native baseline.
VM_IDS=$(grep '"backend":"vm"' "$SMOKE_DIR/tune.jsonl" | sed 's/^{"id":"\([^"]*\)".*/\1/')
[ -n "$VM_IDS" ] && [ -z "$(echo "$VM_IDS" | sort | uniq -d)" ] \
    || { echo "tuner screened no cell, or one program twice: $VM_IDS"; exit 1; }
CONFIRM_TOP=$(sed -n 's/^pub const CONFIRM_TOP: usize = \([0-9]*\);$/\1/p' crates/bench/src/autotune.rs)
RUSTC_RECORDS=$(grep -c '"backend":"rustc"' "$SMOKE_DIR/tune.jsonl" || true)
[ -n "$CONFIRM_TOP" ] && [ "$RUSTC_RECORDS" -le $((2 * CONFIRM_TOP + 1)) ] \
    || { echo "tuner confirmed $RUSTC_RECORDS cells, CONFIRM_TOP '$CONFIRM_TOP'"; exit 1; }
# Capture rather than pipe into `grep -q`: with pipefail, grep exiting
# at first match SIGPIPEs table1 mid-print and fails a passing check.
TUNED_OUT=$(POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
    cargo run --release -q -p polymix-bench --bin table1 -- \
    --dataset mini --jobs 2 --run-timeout 120 \
    --tuned --tuned-config "$SMOKE_DIR/tuned/2mm.json")
echo "$TUNED_OUT" | grep -q 'tuned (' \
    || { echo "table1 --tuned did not render the tuned row"; exit 1; }

# Daemon smoke test: start the optimization service, drive the full
# robustness surface over a real socket — cold miss, warm hit served
# from the cache, an injected scheduler panic degrading to the identity
# schedule with a well-formed response — then shut it down cleanly.
echo "== service smoke test =="
ADDR_FILE="$SMOKE_DIR/service.addr"
cargo run --release -q -p polymix-service --bin polymix_service -- serve \
    --addr 127.0.0.1:0 --cache-dir "$SMOKE_DIR/service_cache" \
    --addr-file "$ADDR_FILE" --allow-inject > "$SMOKE_DIR/service.log" 2>&1 &
SERVICE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    kill -0 "$SERVICE_PID" 2>/dev/null || { cat "$SMOKE_DIR/service.log"; echo "daemon died on startup"; exit 1; }
    sleep 0.1
done
[ -s "$ADDR_FILE" ] || { echo "daemon never wrote its address"; exit 1; }
ADDR=$(cat "$ADDR_FILE")
SRV() { cargo run --release -q -p polymix-service --bin polymix_service -- "$@"; }
COLD_OUT=$(SRV req --addr "$ADDR" --kernel gemm)
echo "$COLD_OUT" | grep -q 'served=miss' \
    || { echo "cold request did not optimize: $COLD_OUT"; exit 1; }
WARM_OUT=$(SRV req --addr "$ADDR" --kernel gemm)
echo "$WARM_OUT" | grep -q 'served=hit' \
    || { echo "warm request was not served from the cache: $WARM_OUT"; exit 1; }
PANIC_OUT=$(SRV req --addr "$ADDR" --kernel 2mm --inject panic)
echo "$PANIC_OUT" | grep -q 'served=identity' \
    && echo "$PANIC_OUT" | grep -q 'degraded=1' \
    || { echo "injected panic did not degrade to identity: $PANIC_OUT"; exit 1; }
SRV shutdown --addr "$ADDR" > /dev/null || { echo "shutdown not acked"; exit 1; }
wait "$SERVICE_PID" || { echo "daemon exited nonzero"; exit 1; }

# Benchmark smoke: every `BENCHMARK.json` workload once on a small
# input, outputs checked against `benchmark/expected/`. `--locked`: a
# dependency edge added or removed between `crates/*` must fail here
# instead of silently rewriting `benchmark/Cargo.lock`.
echo "== benchmark smoke test =="
cargo run --release --quiet --offline --locked \
    --manifest-path benchmark/Cargo.toml -- --quick

echo "CI OK"
