#!/usr/bin/env bash
# Repo-wide lint + test gate. Run before pushing; CI runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== golden RunSummary regression (tests/goldens) =="
cargo test -q --test run_summary_golden

echo "== mlcc-bench tests + paper_rate and chaos_trace reference gates =="
# mlcc-bench is a package of its own (empty [workspace]), so the workspace
# run above does not test it. One paper_rate pass checks every fig1, zoo
# and Table 1 result against mlcc-bench/reference/seed1.txt (within 1e-3)
# and exits nonzero on drift, so a stepping change that moves results
# fails here, not first in the benchmark.
cargo test --offline --manifest-path mlcc-bench/Cargo.toml
cargo run --release --offline --quiet --manifest-path mlcc-bench/Cargo.toml --bin mlcc-bench -- \
    --workload paper_rate --seed 1 --passes 1 | tail -n 1
# One chaos_trace pass checks every chaos cell against the same references
# and that parse_jsonl(export::jsonl(events)) == events for each recording.
cargo run --release --offline --quiet --manifest-path mlcc-bench/Cargo.toml --bin mlcc-bench -- \
    --workload chaos_trace --seed 1 --passes 1 | tail -n 1
# The committed perf records (EXPERIMENTS.md "Performance") are read as a
# series: the latest is compared with the first, row by row. Both must
# stay readable by the current schema; the verdicts are printed, not
# gated, since the records come from different runs of a shared host.
cargo run --release --offline --quiet --manifest-path mlcc-bench/Cargo.toml --bin mlcc-bench -- \
    compare perf/mlcc-bench-seed1.json perf/mlcc-bench-seed1-pr28.json

echo "== parallel determinism gate (--jobs 1 vs --jobs 4 byte-identical) =="
cargo build --release -q
BIN=target/release/mlcc-repro
GATE=$(mktemp -d)
trap 'rm -rf "$GATE"' EXIT
for j in 1 4; do
    mkdir -p "$GATE/j$j"
    # BENCH_*.json carry wall-clock and the job count, so they are
    # expected to differ; everything else must be byte-identical.
    "$BIN" all --iterations 10 --jobs "$j" \
        --csv "$GATE/j$j/csv" --summary "$GATE/j$j/run.json" \
        | sed "s#$GATE/j$j#OUT#g" > "$GATE/j$j/stdout.txt"
done
diff -r "$GATE/j1/csv" "$GATE/j4/csv"
diff "$GATE/j1/run.json" "$GATE/j4/run.json"
diff "$GATE/j1/stdout.txt" "$GATE/j4/stdout.txt"
echo "byte-identical across --jobs 1 and --jobs 4"

echo "== packet-engine determinism pin (traced JSONL sha256 + counts) =="
# train_packets=1 is the per-packet engine; 64 runs full trains, whose
# packets the engine steps in runs. Each traced run must reproduce the
# pinned digest and telemetry/packet counts exactly. The pins were taken
# when two event-queue implementations (a timing wheel and a binary heap)
# still produced these bytes identically; a queue or engine change that
# moves them is a determinism break, not a new pin.
while read -r t sha counts; do
    OUT=$(cargo run -q --release -p netsim --example packet_trace -- "$t" "$GATE/trace_$t.jsonl" < /dev/null)
    GOT_SHA=$(sha256sum "$GATE/trace_$t.jsonl" | cut -d' ' -f1)
    GOT_COUNTS=${OUT#"$GATE/trace_$t.jsonl: "}
    if [ "$GOT_SHA" != "$sha" ] || [ "$GOT_COUNTS" != "$counts" ]; then
        echo "packet trace at train_packets=$t drifted:" >&2
        echo "  sha256 $GOT_SHA (pinned $sha)" >&2
        echo "  \"$GOT_COUNTS\" (pinned \"$counts\")" >&2
        exit 1
    fi
    echo "traced packet run at train_packets=$t matches its pin: $GOT_COUNTS"
done <<'PINS'
1 e03002510ba3ff73f6923cb406e82fab6cf1d88c71b7ba3eb603705557858a65 12456 telemetry events (292066 packets, 6071 marked)
64 1fb1febad94f5ac946c929c7a7e0eba4e48e611e72f8d3d4df421f4bee48415a 13348 telemetry events (256692 packets, 6517 marked)
PINS

echo "== paper-scale packet validation wall-clock budget smoke =="
PAPER_T0=$(date +%s.%N)
cargo test -q --release --test packet_validation paper_scale_mix_agrees_with_batching \
    > /dev/null
PAPER_WALL=$(awk -v t0="$PAPER_T0" -v t1="$(date +%s.%N)" 'BEGIN { print t1 - t0 }')
PAPER_BUDGET=60
echo "paper-scale packet test: ${PAPER_WALL}s wall clock incl. build (budget ${PAPER_BUDGET}s)"
awk -v w="$PAPER_WALL" -v b="$PAPER_BUDGET" 'BEGIN { exit !(w <= b) }' || {
    echo "paper-scale packet test blew the ${PAPER_BUDGET}s wall-clock budget: ${PAPER_WALL}s" >&2
    exit 1
}

echo "== fig1 wall-clock budget smoke =="
"$BIN" fig1 --iterations 100 --summary-dir "$GATE/bench" > /dev/null
WALL=$(grep -o '"wall_clock_secs":[0-9.eE+-]*' "$GATE/bench/BENCH_fig1.json" | cut -d: -f2)
BUDGET=30
echo "fig1 (100 iterations): ${WALL}s wall clock (budget ${BUDGET}s)"
awk -v w="$WALL" -v b="$BUDGET" 'BEGIN { exit !(w <= b) }' || {
    echo "fig1 blew the ${BUDGET}s wall-clock budget: ${WALL}s" >&2
    exit 1
}

echo "== fig1 work gate (rate-engine step counts, exact) =="
# The wall-clock budget above only catches a hang. The engine's own step
# counts are work, which host load cannot move, so a stepping regression
# (more steps, or steps moved between idle, solo and contended window
# steps and plain stepping) fails here and not only in mlcc-bench.
"$BIN" fig1 --iterations 100 --metrics > "$GATE/fig1_metrics.txt"
while read -r name pin; do
    GOT=$(awk -v n="$name" '$1 == n { print $3 }' "$GATE/fig1_metrics.txt")
    if [ "$GOT" != "$pin" ]; then
        echo "fig1 (100 iterations): $name is ${GOT:-missing}, pinned at $pin" >&2
        exit 1
    fi
    echo "fig1 (100 iterations): $name $GOT matches its pin"
done <<'PINS'
rate_steps_total 12890140
rate_steps_idle 3359299
rate_steps_solo 4656451
rate_steps_contended 4809640
PINS

echo "== chaos none byte-identity gate (fig1 + table1 trace JSONL) =="
for e in fig1 table1; do
    "$BIN" "$e" --iterations 10 --trace "$GATE/${e}_plain.jsonl" > /dev/null
    "$BIN" "$e" --iterations 10 --chaos none --trace "$GATE/${e}_none.jsonl" > /dev/null
    "$BIN" "$e" --iterations 10 --chaos stragglers --chaos-seed 3 \
        --trace "$GATE/${e}_perturbed.jsonl" > /dev/null
    cmp "$GATE/${e}_plain.jsonl" "$GATE/${e}_none.jsonl"
    if cmp -s "$GATE/${e}_plain.jsonl" "$GATE/${e}_perturbed.jsonl"; then
        echo "$e: seeded chaos run is identical to the quiet run — injection is inert" >&2
        exit 1
    fi
done
echo "chaos=none byte-identical to no flag; seeded chaos perturbs"

echo "== chaos matrix (seeds × profiles) with wall-clock budget =="
CHAOS_T0=$(date +%s.%N)
"$BIN" chaos --iterations 40 --summary-dir "$GATE/bench" \
    --trace "$GATE/chaos_trace.jsonl" > /dev/null
CHAOS_WALL=$(awk -v t0="$CHAOS_T0" -v t1="$(date +%s.%N)" 'BEGIN { print t1 - t0 }')
CHAOS_BUDGET=90
echo "chaos matrix: ${CHAOS_WALL}s wall clock (budget ${CHAOS_BUDGET}s)"
awk -v w="$CHAOS_WALL" -v b="$CHAOS_BUDGET" 'BEGIN { exit !(w <= b) }' || {
    echo "chaos matrix blew the ${CHAOS_BUDGET}s wall-clock budget: ${CHAOS_WALL}s" >&2
    exit 1
}
REC=$(grep -o '"all_recovered":[0-9.eE+-]*' "$GATE/bench/BENCH_chaos.json" | cut -d: -f2)
awk -v r="$REC" 'BEGIN { exit !(r == 1) }' || {
    echo "chaos matrix: a perturbed cell never recovered (all_recovered=$REC)" >&2
    exit 1
}
echo "all chaos cells recovered"

echo "== snapshot fork byte-identity gate (restore ≡ re-simulated prefix) =="
# Restoring the shared-prefix snapshot must reproduce exactly the bytes of
# re-simulating the prefix in every cell (--fork-replay), at any worker
# count. fig1 covers the engine round-trip; the chaos sweep covers the
# barrier mutation path and map_forked.
mkdir -p "$GATE/fork"
"$BIN" fig1 --iterations 10 --fork-at 100ms \
    --trace "$GATE/fork/fig1_forked.jsonl" > /dev/null
"$BIN" fig1 --iterations 10 --fork-at 100ms --fork-replay \
    --trace "$GATE/fork/fig1_replay.jsonl" > /dev/null
cmp "$GATE/fork/fig1_forked.jsonl" "$GATE/fork/fig1_replay.jsonl"
"$BIN" chaos --iterations 20 --fork-at 200ms --jobs 1 \
    --trace "$GATE/fork/chaos_j1.jsonl" > /dev/null
"$BIN" chaos --iterations 20 --fork-at 200ms --jobs 4 \
    --trace "$GATE/fork/chaos_j4.jsonl" > /dev/null
"$BIN" chaos --iterations 20 --fork-at 200ms --fork-replay --jobs 1 \
    --trace "$GATE/fork/chaos_replay.jsonl" > /dev/null
cmp "$GATE/fork/chaos_j1.jsonl" "$GATE/fork/chaos_j4.jsonl"
cmp "$GATE/fork/chaos_j1.jsonl" "$GATE/fork/chaos_replay.jsonl"
echo "forked runs byte-identical (fig1 + chaos, --jobs 1/4, replay baseline)"

echo "== snapshot speedup budget (forked 16-cell sweep, single worker) =="
"$BIN" snapshot --jobs 1 --summary-dir "$GATE/bench" > /dev/null
SPEEDUP=$(grep -o '"speedup":[0-9.eE+-]*' "$GATE/bench/BENCH_snapshot.json" | cut -d: -f2)
IDENT=$(grep -o '"byte_identical":[0-9.eE+-]*' "$GATE/bench/BENCH_snapshot.json" | cut -d: -f2)
SNAP_BUDGET=3
awk -v s="$SPEEDUP" -v i="$IDENT" -v b="$SNAP_BUDGET" 'BEGIN { exit !(s >= b && i == 1) }' || {
    echo "snapshot bench: ${SPEEDUP}x (budget ${SNAP_BUDGET}x), byte_identical=$IDENT" >&2
    exit 1
}
echo "forked sweep ${SPEEDUP}x faster than replaying the prefix, byte-identical"

echo "== watch byte-identity gate (--watch --slo --flight leave outputs untouched) =="
# The watchdog and the flight dump read the recording after the run, so
# turning them on must not change the trace, the summary or stdout.
mkdir -p "$GATE/watch_off" "$GATE/watch_on"
"$BIN" fig1 --iterations 10 \
    --trace "$GATE/watch_off/run.jsonl" --summary "$GATE/watch_off/run.json" \
    | sed "s#$GATE/watch_off#OUT#g" > "$GATE/watch_off/stdout.txt"
"$BIN" fig1 --iterations 10 \
    --trace "$GATE/watch_on/run.jsonl" --summary "$GATE/watch_on/run.json" \
    --watch --slo scripts/slo_default.toml --flight "$GATE/flight.jsonl" \
    2> /dev/null \
    | sed "s#$GATE/watch_on#OUT#g" > "$GATE/watch_on/stdout.txt"
cmp "$GATE/watch_off/run.jsonl" "$GATE/watch_on/run.jsonl"
diff "$GATE/watch_off/run.json" "$GATE/watch_on/run.json"
diff "$GATE/watch_off/stdout.txt" "$GATE/watch_on/stdout.txt"
test -s "$GATE/flight.jsonl"
echo "trace, summary, and stdout byte-identical with --watch --slo --flight on; flight dump written"

echo "== SLO-gated chaos run (recovery alerts within golden count) =="
SLO_CODE=0
"$BIN" chaos --iterations 40 --slo scripts/slo_chaos.toml \
    --alerts "$GATE/alerts.jsonl" > /dev/null 2>&1 || SLO_CODE=$?
if [ "$SLO_CODE" -ne 4 ]; then
    echo "SLO-gated chaos run: expected breach exit code 4, got $SLO_CODE" >&2
    exit 1
fi
ALERTS=$(grep -c '"alert":' "$GATE/alerts.jsonl")
ALERT_GOLDEN=4
if [ "$ALERTS" -lt 1 ] || [ "$ALERTS" -gt "$ALERT_GOLDEN" ]; then
    echo "SLO-gated chaos run: $ALERTS alerts outside [1, $ALERT_GOLDEN]" >&2
    exit 1
fi
grep -q '"alert":"recovery_stall"' "$GATE/alerts.jsonl"
grep -q '"type":"link_capacity"' "$GATE/alerts.jsonl"
echo "chaos breached the recovery SLO: $ALERTS alert(s) (golden max $ALERT_GOLDEN), context holds the fault"

echo "== explain determinism + golden blame table + conservation gate =="
# `explain` exits nonzero if any scenario's blame components fail to sum
# to the measured iteration times within 1%, so running it IS the
# conservation check. Its output must also be byte-stable across worker
# counts and match the committed golden blame table.
"$BIN" explain fig1 --iterations 20 --jobs 1 > "$GATE/explain_j1.txt"
"$BIN" explain fig1 --iterations 20 --jobs 4 > "$GATE/explain_j4.txt"
cmp "$GATE/explain_j1.txt" "$GATE/explain_j4.txt"
diff tests/goldens/fig1_explain.txt "$GATE/explain_j1.txt" || {
    echo "explain drifted from the golden blame table; if intentional:" >&2
    echo "  $BIN explain fig1 --iterations 20 > tests/goldens/fig1_explain.txt" >&2
    exit 1
}
grep -q "conservation: .* (PASS" "$GATE/explain_j1.txt"
echo "explain byte-identical across --jobs, matches golden, conserves time"

echo "== offline report summaries land in the trend warehouse =="
rm -rf "$GATE/rpt"
mkdir -p "$GATE/rpt"
"$BIN" fig1 --iterations 10 --trace "$GATE/rpt/run.jsonl" > /dev/null
"$BIN" report "$GATE/rpt/run.jsonl" --out "$GATE/rpt/run.html" \
    --summary "$GATE/rpt/run.json" > /dev/null
grep -q '"kind":"summary"' "$GATE/rpt/HISTORY.jsonl" || {
    echo "report --summary did not append to HISTORY.jsonl" >&2
    exit 1
}
echo "report --summary feeds HISTORY.jsonl"

echo "== trend warehouse determinism + injected-regression gate =="
rm -rf "$GATE/hist"
"$BIN" fig1 --iterations 10 --summary-dir "$GATE/hist" > /dev/null
"$BIN" fig1 --iterations 10 --summary-dir "$GATE/hist" > /dev/null
"$BIN" trend "$GATE/hist/HISTORY.jsonl" --wall-tolerance 10 > "$GATE/trend1.txt"
"$BIN" trend "$GATE/hist/HISTORY.jsonl" --wall-tolerance 10 > "$GATE/trend2.txt"
diff "$GATE/trend1.txt" "$GATE/trend2.txt"
tail -n1 "$GATE/hist/HISTORY.jsonl" \
    | sed -E 's/"wall_clock_secs":[0-9.eE+-]+/"wall_clock_secs":9999.0/' \
    >> "$GATE/hist/HISTORY.jsonl"
if "$BIN" trend "$GATE/hist/HISTORY.jsonl" --wall-tolerance 10 > /dev/null; then
    echo "trend gate: injected 9999s wall-clock regression went unflagged" >&2
    exit 1
fi
echo "trend verdict deterministic across identical runs; injected regression flagged"

echo "== shard byte-identity gate (--shards 1 vs 4, incl. --jobs/--fork-at) =="
# The shard plan is a pure function of the topology, so the merged trace
# must be byte-identical at any worker count — also when composed with
# scenario-level parallelism (--jobs) and a snapshot barrier (--fork-at).
mkdir -p "$GATE/shard"
"$BIN" shard --iterations 2 --shards 1 --trace "$GATE/shard/s1.jsonl" > /dev/null
"$BIN" shard --iterations 2 --shards 4 --trace "$GATE/shard/s4.jsonl" > /dev/null
"$BIN" shard --iterations 2 --shards 4 --jobs 4 --fork-at 20ms \
    --trace "$GATE/shard/s4_composed.jsonl" > /dev/null
cmp "$GATE/shard/s1.jsonl" "$GATE/shard/s4.jsonl"
cmp "$GATE/shard/s1.jsonl" "$GATE/shard/s4_composed.jsonl"
echo "sharded trace byte-identical across --shards 1/4, --jobs, --fork-at"
# Pinned below: the shard landings of a chaos plan (fluid and packet).
"$BIN" shard --iterations 2 --chaos stragglers --chaos-seed 3 \
    --trace "$GATE/shard/stragglers.jsonl" > /dev/null
# The fluid and packet runs each open a scenario, so the trace replays.
"$BIN" report "$GATE/shard/s1.jsonl" --out "$GATE/shard/s1.html" > /dev/null
echo "report replays the sharded trace"

echo "== shard cost gate (paper-scale decomposition, BENCH_shard) =="
"$BIN" shard --shards 4 --summary-dir "$GATE/bench" > /dev/null
SH_RATIO=$(grep -o '"global_over_sharded1":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_SPEEDUP=$(grep -o '"speedup":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_GSOLVES=$(grep -o '"global_solves":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_SSOLVES=$(grep -o '"sharded1_solves":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_IDENT=$(grep -o '"byte_identical":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_STATS=$(grep -o '"stats_match":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
SH_DONE=$(grep -o '"completed":[0-9.eE+-]*' "$GATE/bench/BENCH_shard.json" | cut -d: -f2)
# The global fluid run solves each link-disjoint component on its own, so
# it must take exactly as many max-min solves as the one-worker sharded
# run and match it bit for bit. The solve counts are the engine's own
# `fluid_allocations_total`, so host load cannot move them; the wall
# ratio `global_over_sharded1` (one unchanged binary read 0.91-1.51) and
# `speedup` (thread parallelism only) are reported, not gated. A count or
# stats match over a truncated run measures nothing, so every job must
# also finish inside the budget.
awk -v g="$SH_GSOLVES" -v s="$SH_SSOLVES" -v i="$SH_IDENT" -v m="$SH_STATS" -v c="$SH_DONE" \
    'BEGIN { exit !(g != "" && g > 0 && g == s && i == 1 && m == 1 && c == 1) }' || {
    echo "shard bench: solves global=$SH_GSOLVES sharded1=$SH_SSOLVES," \
        "byte_identical=$SH_IDENT, stats_match=$SH_STATS, completed=$SH_DONE" >&2
    exit 1
}
echo "sharded paper-scale run completed; global and 1-worker sharded runs take" \
    "$(awk -v g="$SH_GSOLVES" 'BEGIN { printf "%d", g }') solves each, bit-identical stats;" \
    "global/sharded1 wall ${SH_RATIO}x, ${SH_SPEEDUP}x with 4 workers"

echo "== variants zoo gate (determinism, mltcp-beats-fair, wall-clock budget) =="
# The seven-cell controller matrix must be byte-identical across worker
# counts, it must reject --shards (it simulates one component, so the
# flag would be silently ignored), the MLTCP-style cell must beat fair on mean
# iteration time (the paper-adjacent claim BENCH_variants.json records),
# and the sweep must stay inside its wall-clock budget. The pinned golden
# summary (tests/goldens/variants.json) is gated by run_summary_golden
# above.
mkdir -p "$GATE/var"
VAR_T0=$(date +%s.%N)
# "wrote <path>" lines name the (differing) output files; the sweep
# table above them must be byte-identical.
"$BIN" variants --iterations 12 --jobs 1 --trace "$GATE/var/j1.jsonl" \
    --summary-dir "$GATE/var" | grep -v '^wrote ' > "$GATE/var/stdout_j1.txt"
VAR_WALL=$(awk -v t0="$VAR_T0" -v t1="$(date +%s.%N)" 'BEGIN { print t1 - t0 }')
"$BIN" variants --iterations 12 --jobs 4 --trace "$GATE/var/j4.jsonl" \
    | grep -v '^wrote ' > "$GATE/var/stdout_j4.txt"
VAR_SHARDS_CODE=0
"$BIN" variants --iterations 12 --shards 4 > /dev/null 2>&1 || VAR_SHARDS_CODE=$?
if [ "$VAR_SHARDS_CODE" -ne 2 ]; then
    echo "variants --shards 4: expected usage error exit 2, got $VAR_SHARDS_CODE" >&2
    exit 1
fi
cmp "$GATE/var/j1.jsonl" "$GATE/var/j4.jsonl"
diff "$GATE/var/stdout_j1.txt" "$GATE/var/stdout_j4.txt"
MLTCP=$(grep -o '"mltcp.speedup_vs_fair":[0-9.eE+-]*' \
    "$GATE/var/BENCH_variants.json" | cut -d: -f2)
awk -v s="$MLTCP" 'BEGIN { exit !(s >= 1.05) }' || {
    echo "variants: mltcp no longer beats fair (speedup_vs_fair=$MLTCP)" >&2
    exit 1
}
VAR_BUDGET=60
echo "variants sweep: ${VAR_WALL}s wall clock (budget ${VAR_BUDGET}s), mltcp ${MLTCP}x vs fair"
awk -v w="$VAR_WALL" -v b="$VAR_BUDGET" 'BEGIN { exit !(w <= b) }' || {
    echo "variants sweep blew the ${VAR_BUDGET}s wall-clock budget: ${VAR_WALL}s" >&2
    exit 1
}
echo "zoo sweep byte-identical across --jobs, rejects --shards, mltcp beats fair"

echo "== recorded-event work pins (trace line counts + sha256, exact) =="
# The traces written above by `chaos --iterations 40`, `table1 --iterations
# 10` and `variants --iterations 12 --jobs 1`, the fork gate's forked fig1
# and chaos runs, a fig1 run under signal loss, `fig2 --iterations 6`,
# `adaptive --iterations 12` and `shard --iterations 2 --chaos stragglers
# --chaos-seed 3`: one line per recorded event, so the count
# is work that host load cannot move, and the digest pins the exporter's
# bytes. An engine change that records more or fewer events, or an
# exporter change that moves a byte, fails here. The forked pins catch a
# drift that a forked run and its replay share. The signal run is the only
# pin on the rate engine's mark-loss and CNP-loss rolls, and must also
# match across --jobs. The rate CSVs of `fig1 --iterations 10 --csv` and
# `fig2 --iterations 6 --csv` pin the rate engine's throughput traces
# (one row per trace sample), which no recorded event carries.
for j in 1 4; do
    "$BIN" fig1 --iterations 10 --chaos signal --chaos-seed 3 --jobs "$j" \
        --trace "$GATE/signal_j$j.jsonl" > /dev/null
done
cmp "$GATE/signal_j1.jsonl" "$GATE/signal_j4.jsonl"
"$BIN" fig2 --iterations 6 --trace "$GATE/fig2.jsonl" > /dev/null
"$BIN" adaptive --iterations 12 --trace "$GATE/adaptive.jsonl" > /dev/null
"$BIN" fig1 --iterations 10 --csv "$GATE/csv/fig1" > /dev/null
"$BIN" fig2 --iterations 6 --csv "$GATE/csv/fig2" > /dev/null
while read -r file lines sha; do
    GOT_LINES=$(wc -l < "$GATE/$file")
    GOT_SHA=$(sha256sum "$GATE/$file" | cut -d' ' -f1)
    if [ "$GOT_LINES" != "$lines" ] || [ "$GOT_SHA" != "$sha" ]; then
        echo "$file drifted: $GOT_LINES lines, sha256 $GOT_SHA" >&2
        echo "  (pinned $lines lines, sha256 $sha)" >&2
        exit 1
    fi
    echo "$file: $GOT_LINES lines, matches its pin"
done <<'PINS'
chaos_trace.jsonl 495309 a24130edccfa9fa99c57e7636f458c2017bf3bfeee5ef73d4766df03a93bbd81
table1_plain.jsonl 420986 7e58f1b0978c53cd6fd22b5d6902b67e540ef6c7e617391c6b2c1364460ce81e
var/j1.jsonl 102431 0a6b501b834ab756afa8333ce4e40cce0bcbae66b517d59532726ed14341eac3
signal_j1.jsonl 25308 f417f06627779d5a35d0359f7f2d08b6ea4f58492ac14b69601c252de0319d6d
fig2.jsonl 27831 e848645d7c916e00ef6239cd1e6399407b8055de8bea34c7c9e7d4aa307434e1
adaptive.jsonl 195205 ba41a4f84b8ff726763edaf9fcd4cb053b3452dc433724589972d8c89b8b50a6
fork/fig1_forked.jsonl 43106 977f72f5dd610e2a2eab03eee1e9121875568294d366aa71951c59e9009a1fa4
fork/chaos_j1.jsonl 252213 81ae5899437f434bcc0604406c94b3cd48b21a3527e15ce2f35ed27ab32b3a3d
shard/stragglers.jsonl 1015840 9eb48a1a8038fbd206e584c309b1f74a82b56c76b1d7446818085b6f32b9dd7e
csv/fig1/fig1bc_fair_rates.csv 3805 f115306368e1b05b7e437af0c7ad16e6ea9f2141aeadc43fbd5edad4380e4233
csv/fig1/fig1bc_unfair_rates.csv 2905 a993ee5590b8fc13f3693550892e3dc9f5b3525727fea48a9eaf961d86dec4db
csv/fig2/fig2_fair_rates.csv 2283 507a018588ae6d61ab80d1bfb6c3d21c00a2ae715b756f79dfcddd5354a5ea2f
csv/fig2/fig2_unfair_rates.csv 1860 be2b1e4ea6ff13f77a67e5d595d35daf85642d64cd50404656aff41c8102f97c
PINS

echo "OK"
