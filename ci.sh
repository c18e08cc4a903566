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
NO_EXPECT="polymix-ast polymix-bench polymix-cachesim polymix-codegen polymix-core polymix-deps \
polymix-dl polymix-ir polymix-math polymix-pluto polymix-runtime polymix-service polymix-verify polymix-vm"
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
# And one lowering of `Par`: the emitter's. The vm runs every loop in
# schedule order, so it calls no runtime, starts no thread and shares no
# buffer across threads (its test module still builds `Par::`-annotated
# trees, which this does not match).
if git grep -n -E 'polymix_runtime|thread::|unsafe impl (Send|Sync)|run_counted|rect_grid|reduction_array' \
    -- crates/vm/src; then
    echo "polymix-vm grew a parallel dispatch back"; exit 1
fi
# And one peeling walk: both schedulers read and peel dependence states
# through `polymix_deps::legality::Peeling`, not beside the PoDG's edges.
if git grep -n -F 'podg.deps.iter().zip(' -- crates/core/src crates/pluto/src; then
    echo "a scheduler grew a private dependence walk back"; exit 1
fi
# And one assembly of a `2d+1` schedule: both schedulers commit rows and β
# into `Peeling`, whose `schedules` builds every `Schedule`; neither writes
# a `Schedule { .. }` literal or keeps a `finish` of its own (`\b` keeps
# `FallbackSchedule {` out).
if git grep -n -E '\bSchedule \{|fn finish\(' -- crates/core/src crates/pluto/src; then
    echo "a scheduler assembles its own Schedule again"; exit 1
fi
# And one dependence list for the AST stage: every stage reads the nest's
# `polymix_deps::NestDep` records, each vector with its own endpoints, not
# a vector/flag pair beside a separate endpoint slice.
if git grep -n -F '(Vec<DepElem>, bool)' -- 'crates/*/src/*'; then
    echo "an AST stage split the dependence list again"; exit 1
fi
# And one rule for "settled by an outer level": each record holds the
# level that carries it, and the detector, `open_in` and every tiling test
# read that field, not a prefix walk of their own.
if git grep -n -E 'carried_before\(|\.take\(k\)\.all\(\|[a-z_]+\| *[a-z_]+\.is_zero\(\)\)' -- 'crates/*/src/*'; then
    echo "a second 'carried by an outer level' rule is back"; exit 1
fi
# And one realization of register tiling: both of its factors are `jam`
# marks the emitter writes out guard-free, not a tree rewrite that steps a
# point loop and guards its replicas.
if git grep -n -E 'fn unroll\(|transforms::unroll' -- 'crates/*/src/*'; then
    echo "a second register-tiling realization is back"; exit 1
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
# lint) before anything is compiled or executed. `--strict` also fails
# an artifact on a coverage note (`unsupported`): none carries one since
# the detector stopped marking pipelines whose bodies are not loops
# alone (cholesky, trisolv and lu poly+ast carried nine). The audit ends
# with a census of the kernel_rt calls it saw; each of the four
# constructs must still have traffic, or an emitter path has silently
# gone dead.
echo "== static verify gate =="
VERIFY_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- --dataset mini --strict) \
    || { echo "$VERIFY_OUT" | grep -v '^ok'; exit 1; }
CENSUS=$(echo "$VERIFY_OUT" | grep '^regions: ') \
    || { echo "static audit printed no region census"; exit 1; }
echo "$CENSUS"
echo "$CENSUS" | grep -Eq \
    '^regions: doall [1-9][0-9]* reduction [1-9][0-9]* pipeline [1-9][0-9]* wavefront [1-9][0-9]*$' \
    || { echo "a parallel construct lost all its traffic"; exit 1; }
# The audit then counts, per kind, the outermost marks the emitter ran
# sequentially instead of as a region. There are none: the detector marks
# only what the emitter runs — a reduction privatizes the arrays its mark
# lists, and a pipeline's body is loops alone — and leaves a nest it
# cannot run that way unmarked. A fallback here is a mark the optimizer
# placed and the emitter could not honour.
FALLBACKS=$(echo "$VERIFY_OUT" | grep '^fallbacks: ') \
    || { echo "static audit printed no fallback census"; exit 1; }
echo "$FALLBACKS"
read -r FB_R FB_P FB_W <<< "$(echo "$FALLBACKS" \
    | sed -n 's/^fallbacks: reduction \([0-9]*\) pipeline \([0-9]*\) wavefront \([0-9]*\)$/\1 \2 \3/p')"
[ -n "$FB_W" ] && [ "$FB_R" -le 0 ] && [ "$FB_P" -le 0 ] && [ "$FB_W" -le 0 ] \
    || { echo "parallel marks fell back to sequential code: $FALLBACKS (committed: 0 0 0)"; exit 1; }
# Register tiling: the audit counts the loops marked `jam: f` (each one
# proven by the certifier's jam walk, or the audit above already failed
# with `jam-unsafe`); none may be lost. It then counts the pipeline marks
# the poly+AST flow turned sequential when the certifier refused a phased
# pipeline; none may be added.
JAMS=$(echo "$VERIFY_OUT" | grep '^jams: ') \
    || { echo "static audit printed no jam count"; exit 1; }
echo "$JAMS"
[ "${JAMS#jams: }" -ge 94 ] \
    || { echo "fewer loops are jammed: $JAMS (committed: 94)"; exit 1; }
DEMOTED=$(echo "$VERIFY_OUT" | grep '^demoted: ') \
    || { echo "static audit printed no demotion count"; exit 1; }
echo "$DEMOTED"
[ "${DEMOTED#demoted: }" -le 0 ] \
    || { echo "more pipeline marks were demoted: $DEMOTED (committed: 0)"; exit 1; }
# Same idea for the tiling stage: the audit sums what `tile_nest` reported
# for every nest. Each of its three forms must still be taken somewhere,
# and so must the DL model's decision not to tile (`declined`) and the
# point-loop ordering that puts a tile's vector loop innermost
# (`reordered`). The number
# of statements `tile_nest` left under a loop that was not strip-mined must
# not rise above the committed one (299 over the 25 kernels with maximal
# fusion audited once, as `iter(max)`; 356 while `pluto-maxfuse` audited
# the same programs a second time; 386 before a
# nest tile_nest strip-mines nothing in was emitted untiled, 325 over the
# paper's 22, 341 before the DL model declined nests, which it counts none
# of, 459 before the sunk form) — lower it here when a change tiles more.
TILING=$(echo "$VERIFY_OUT" | grep '^tiling: ') \
    || { echo "static audit printed no tiling census"; exit 1; }
echo "$TILING"
echo "$TILING" | grep -Eq \
    '^tiling: joint [1-9][0-9]* chains [1-9][0-9]* sunk [1-9][0-9]* declined [1-9][0-9]* reordered [1-9][0-9]* untiled-levels [0-9]+$' \
    || { echo "a tiling form, the decline decision or the point-loop order lost all its traffic"; exit 1; }
[ "${TILING##* }" -le 299 ] \
    || { echo "statements lost tile coverage: untiled-levels ${TILING##* } > 299"; exit 1; }
# The next line counts the tiled nests per tile size the flow chose (16,
# 32, 64) and the guard conjuncts guard separation took out of the emitted
# trees: both 16 and 32 are still chosen somewhere (12 and 150 nests over
# the 25 kernels), and no decided guard comes back (32).
SIZES=$(echo "$VERIFY_OUT" | grep '^sizes: ') \
    || { echo "static audit printed no tile-size census"; exit 1; }
echo "$SIZES"
echo "$SIZES" | grep -Eq '^sizes: 16 [1-9][0-9]* 32 [1-9][0-9]* 64 [0-9]+ guards-separated [0-9]+$' \
    || { echo "a tile size lost all its traffic, or the size census is malformed: $SIZES"; exit 1; }
[ "${SIZES##* }" -ge 32 ] \
    || { echo "guards the bounds decide are tested again: guards-separated ${SIZES##* } < 32"; exit 1; }
# Last, how each distinct emptiness question of the audit ended (DESIGN
# §18): refuted by the interval hull, answered "not empty" by the hull's
# lower corner, or handed to Fourier–Motzkin. The corner answers 4 988
# of the 14 128; at zero it has stopped firing, and every non-empty
# answer pays for a full elimination again.
EMPTINESS=$(echo "$VERIFY_OUT" | grep '^emptiness: ') \
    || { echo "static audit printed no emptiness census"; exit 1; }
echo "$EMPTINESS"
echo "$EMPTINESS" | grep -Eq '^emptiness: hull [0-9]+ witness [1-9][0-9]* eliminated [0-9]+$' \
    || { echo "the emptiness witness answered nothing: $EMPTINESS"; exit 1; }
# At `mini` no row is a multiple of 4 KiB, so the audit above sees no
# padded array. At `standard` these four kernels' 1024-wide rows run on
# padded storage (`polymix-codegen`'s emitter), and the reduction
# regions of atax, bicg and correlation run over it (correlation's
# private copies are padded themselves); the source lint must pass there
# too, with those regions in its census.
PADDED_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- \
    --dataset standard atax bicg gemm correlation) \
    || { echo "$PADDED_OUT" | grep -v '^ok'; exit 1; }
echo "$PADDED_OUT" | grep -Eq '^regions: doall [0-9]+ reduction [1-9][0-9]* ' \
    || { echo "the padded audit saw no reduction region"; exit 1; }
# The audits above only ever exit 0; the other two exits are gated here.
# A kernel name that matches nothing is a usage error (2), not an audit
# of nothing. And a kernel source whose reduction marker is not followed
# by its runtime call fails the source lint (1).
RC=0; cargo run --release -q -p polymix-bench --bin verify -- --dataset mini nosuchkernel \
    > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || { echo "verify: unknown kernel name exited $RC, expected 2"; exit 1; }
BAD_SRC=$(mktemp --suffix=.rs)
printf 'fn main() {\n// reduction region 0 (reduced [0])\nlet mut v_c1: i64 = 0;\n}\n' > "$BAD_SRC"
RC=0; LINT_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- "$BAD_SRC") || RC=$?
rm -f "$BAD_SRC"
[ "$RC" -eq 1 ] && echo "$LINT_OUT" | grep -q 'reduction region marker is not followed' \
    || { echo "$LINT_OUT"; echo "lint audit of a broken source: exit $RC, expected 1"; exit 1; }

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
# certifier (bounds proofs). The audit must
# certify every artifact AND prove every access it reached, of a nonzero
# number — an all-skip run would pass vacuously, and an access left
# unproven keeps its dynamic check on the elided fast path.
echo "== bytecode certification gate =="
VM_OUT=$(cargo run --release -q -p polymix-bench --bin verify -- \
    --dataset mini --backend vm)
PROVEN=$(echo "$VM_OUT" | sed -n 's|^vm accesses proven: \([1-9][0-9]*\)/\([0-9]*\)$|\1 \2|p')
[ -n "$PROVEN" ] && [ "${PROVEN% *}" -eq "${PROVEN#* }" ] \
    || { echo "bytecode audit left accesses unproven: '$PROVEN'"; exit 1; }

# Fast end-to-end sweep smoke test: two drivers through the parallel
# executor (default worker count, tmpdir cache, JSONL log), then the same
# invocation again, which must resume every job from the log and reprint
# the same table byte for byte.
echo "== sweep smoke test =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
for spec in table1:4 fig5:6; do
    BIN=${spec%:*} CELLS=${spec#*:}
    for pass in run resume; do
        echo "-- $BIN mini sweep ($pass)"
        POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
            cargo run --release -q -p polymix-bench --bin "$BIN" -- \
            --dataset mini --run-timeout 120 \
            --results "$SMOKE_DIR/$BIN.jsonl" > "$SMOKE_DIR/$BIN.$pass.out"
    done
    # One record per cell from the first pass; the resume pass must add
    # nothing (every job replayed from the log) and print the same table.
    RECORDS=$(wc -l < "$SMOKE_DIR/$BIN.jsonl")
    [ "$RECORDS" -eq "$CELLS" ] || { echo "$BIN: expected exactly $CELLS JSONL records, got $RECORDS"; exit 1; }
    cmp "$SMOKE_DIR/$BIN.run.out" "$SMOKE_DIR/$BIN.resume.out" \
        || { echo "$BIN: the resumed table differs from the measured one"; exit 1; }
done

# Tables and figures measure compiled code only, and a flag a binary
# does not take is refused (exit 2) rather than ignored: the retired
# `--backend vm` must not silently print a rustc table in its place, the
# retired `--measure-jobs` must not silently run one at a time, and the
# tuner's winner is printed, not stored, so no flag writes or reads a
# config file. One parser refuses every misread argument the same way,
# before any work: a value that does not parse, a dataset some kernel
# lacks, a kernel name that is no kernel, a sweep flag given to a binary
# that does not sweep, any argument to one that takes none. No refused
# run may leave a results log (`@R` stands for its path).
echo "== unknown flag gate =="
REFUSED="$SMOKE_DIR/refused.jsonl"
for spec in "table1 --dataset mini --backend vm --results @R" \
        "table1 --dataset mini --measure-jobs 2 --results @R" \
        "table1 --dataset mini --tuned --results @R" \
        "table1 --dataset mini --tuned-config x --results @R" \
        "tune --dataset mini --out x --results @R" \
        "fig6 --jobs 2 --results @R" "table2 --bogus" \
        "tune --budget 6x --results @R" "tune --kernels nosuch --results @R" \
        "fig7 --dataset standrad --results @R" "verify --dataset standrad"; do
    BIN=${spec%% *} ARGS=${spec#* }
    RC=0; cargo run --release -q -p polymix-bench --bin "$BIN" -- \
        ${ARGS//@R/$REFUSED} > /dev/null 2>&1 || RC=$?
    [ "$RC" -eq 2 ] || { echo "$spec exited $RC, expected 2"; exit 1; }
    [ ! -e "$REFUSED" ] || { echo "$spec wrote a results log"; exit 1; }
done
# The daemon CLI and the load soak refuse one too, before they bind or
# connect: a `serve` or a soak that ignored it would run until the
# timeout (124), and a `req` would fail to connect (1).
for spec in "polymix_service serve --addr 127.0.0.1:0 --no-such-flag" \
        "polymix_service req --addr 127.0.0.1:1 --no-such-flag" \
        "polymix_service serve --addr 127.0.0.1:0 --workers two" \
        "service_load --no-such-flag"; do
    RC=0; timeout 60 cargo run --release -q -p polymix-service --bin ${spec%% *} -- \
        ${spec#* } > /dev/null 2>&1 || RC=$?
    [ "$RC" -eq 2 ] || { echo "$spec exited $RC, expected 2"; exit 1; }
done

# Small-budget tuner smoke: one kernel at mini through the closed-loop
# search, which prints its winner and writes nothing but the log.
echo "== tuner smoke test =="
TUNE_OUT=$(POLYMIX_BENCH_DIR="$SMOKE_DIR/cache" \
    cargo run --release -q -p polymix-bench --bin tune -- \
    --kernels 2mm --dataset mini --budget 6 --run-timeout 120 \
    --results "$SMOKE_DIR/tune.jsonl")
grep -q '^  winner: ' <<< "$TUNE_OUT" || { echo "tuner printed no winner"; exit 1; }
# A winner never loses to native: when no confirm beats it, native wins.
SPEEDUP=$(sed -n 's/.*, \([0-9.]*\)x vs native$/\1/p' <<< "$TUNE_OUT")
[ -n "$SPEEDUP" ] && awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.00) }' \
    || { echo "tuner printed a winner below native: '${SPEEDUP}x'"; exit 1; }
# Every screened cell is a distinct program, and rustc confirms at most
# one CONFIRM_TOP prefix per ranking plus the native baseline.
VM_IDS=$(grep '"backend":"vm"' "$SMOKE_DIR/tune.jsonl" | sed 's/^{"id":"\([^"]*\)".*/\1/')
[ -n "$VM_IDS" ] && [ -z "$(echo "$VM_IDS" | sort | uniq -d)" ] \
    || { echo "tuner screened no cell, or one program twice: $VM_IDS"; exit 1; }
CONFIRM_TOP=$(sed -n 's/^pub const CONFIRM_TOP: usize = \([0-9]*\);$/\1/p' crates/bench/src/autotune.rs)
RUSTC_RECORDS=$(grep -c '"backend":"rustc"' "$SMOKE_DIR/tune.jsonl" || true)
[ -n "$CONFIRM_TOP" ] && [ "$RUSTC_RECORDS" -le $((2 * CONFIRM_TOP + 1)) ] \
    || { echo "tuner confirmed $RUSTC_RECORDS cells, CONFIRM_TOP '$CONFIRM_TOP'"; exit 1; }

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
# Both gemm requests carry `--emit`: a hit must serve exactly the source
# bytes the miss certified (the lines after the status line).
SRV req --addr "$ADDR" --kernel gemm --emit > "$SMOKE_DIR/cold.out"
COLD_OUT=$(head -n 1 "$SMOKE_DIR/cold.out")
echo "$COLD_OUT" | grep -q 'served=miss' \
    || { echo "cold request did not optimize: $COLD_OUT"; exit 1; }
SRV req --addr "$ADDR" --kernel gemm --emit > "$SMOKE_DIR/warm.out"
WARM_OUT=$(head -n 1 "$SMOKE_DIR/warm.out")
echo "$WARM_OUT" | grep -q 'served=hit' \
    || { echo "warm request was not served from the cache: $WARM_OUT"; exit 1; }
tail -n +2 "$SMOKE_DIR/cold.out" > "$SMOKE_DIR/cold.rs"
tail -n +2 "$SMOKE_DIR/warm.out" > "$SMOKE_DIR/warm.rs"
grep -q 'fn main' "$SMOKE_DIR/cold.rs" \
    || { echo "cold request returned no source"; exit 1; }
cmp "$SMOKE_DIR/cold.rs" "$SMOKE_DIR/warm.rs" \
    || { echo "the hit served other bytes than the miss certified"; exit 1; }
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
