#!/usr/bin/env bash
# Perf gate: builds the perf harnesses in Release (-O3 -DNDEBUG, LTO) and
# records the tracked trajectory BENCH_perf.json at the repo root.
#
# Usage: scripts/bench.sh [--quick | --gate [REF]]
#   --quick    small fixed sizes (CI smoke via scripts/check.sh --bench);
#              writes to $BENCH_OUT (default BENCH_perf.json) like a full run.
#   --gate     regression gate against a tracked reference (default
#              BENCH_perf.json). Re-runs perf_round_loop at the reference's
#              own users/rounds so the comparison is apples-to-apples, then
#              exits non-zero if the best fresh run is >10% slower in
#              rounds/sec or allocates more per round than the reference.
#              When the reference carries round_loop_mt4 / service sections
#              (worker_threads=4 round loop; the 1M-user service round loop
#              + wire ingest), those throughputs are re-measured and gated
#              by the same floor; older references skip them. A service
#              section that records publish_ms (the per-round metrics
#              publish) also gates it: the best fresh run may be at most
#              the same percentage slower. References without it skip it.
#              Also re-runs perf_inference at the reference's row count and
#              applies the same floor to flat_batch_items_per_sec — but only
#              when the reference records a matching uarch (ISA + kernel):
#              a trajectory measured on an AVX2 host says nothing about a
#              scalar-dispatch run, so cross-uarch comparisons are reported
#              and skipped rather than failed. References that predate the
#              uarch field gate the round loop only.
#              Does not write BENCH_perf.json.
#
#              References that carry an eval section additionally gate the
#              Monte-Carlo evaluator's replicas/sec (perf_eval) with the
#              same floor; older references skip it.
#
#              References that carry a lifecycle section additionally gate
#              lifecycle tracing (perf_lifecycle): the enabled-tracing round
#              throughput gets the same floor, and the measured overhead_pct
#              must stay under LIFECYCLE_MAX_OVERHEAD_PCT (default 2, the
#              DESIGN.md §13 ceiling). Older references skip both.
#
# Environment overrides: USERS, ROUNDS, REPEAT, BASELINE (the pre-optimization
# rounds/sec this machine measured), SERVICE_USERS, SERVICE_ROUNDS,
# INGEST_MSGS, EVAL_USERS, EVAL_SEEDS, EVAL_THREADS, LIFECYCLE_USERS,
# LIFECYCLE_ROUNDS, LIFECYCLE_MAX_OVERHEAD_PCT, BENCH_OUT,
# GATE_MAX_REGRESSION_PCT.
#
# The round-loop harness is run REPEAT times and the best run is recorded:
# rounds/sec on a contended machine is noise-floored, and the fastest run is
# the one that reflects the code rather than the scheduler.
set -eu
cd "$(dirname "$0")/.."

USERS=${USERS:-2000}
ROUNDS=${ROUNDS:-500}
REPEAT=${REPEAT:-5}
INFER_ROWS=${INFER_ROWS:-50000}
# Service-mode sizes: the tracked claim is ~1M simulated users per host.
# A round runs only the brokers with work (well under 1 ms at 1M users),
# so 100 rounds keep the timed window long enough to outlast scheduler
# jitter.
SERVICE_USERS=${SERVICE_USERS:-1000000}
SERVICE_ROUNDS=${SERVICE_ROUNDS:-100}
INGEST_MSGS=${INGEST_MSGS:-200000}
# Monte-Carlo evaluator sizes (perf_eval -> "eval" section).
EVAL_USERS=${EVAL_USERS:-200}
EVAL_SEEDS=${EVAL_SEEDS:-16}
EVAL_THREADS=${EVAL_THREADS:-4}
# Lifecycle-tracing overhead sizes (perf_lifecycle -> "lifecycle" section).
LIFECYCLE_USERS=${LIFECYCLE_USERS:-20000}
LIFECYCLE_ROUNDS=${LIFECYCLE_ROUNDS:-80}
LIFECYCLE_MAX_OVERHEAD_PCT=${LIFECYCLE_MAX_OVERHEAD_PCT:-2}
# Pre-PR baseline measured on this machine at users=2000 rounds=500 (commit
# a695b19, same Release+LTO build recipe).
BASELINE=${BASELINE:-436.38}
OUT=${BENCH_OUT:-BENCH_perf.json}

if [ "${1:-}" = "--quick" ]; then
  USERS=200
  ROUNDS=100
  REPEAT=2
  INFER_ROWS=5000
  SERVICE_USERS=20000
  SERVICE_ROUNDS=5
  INGEST_MSGS=20000
  EVAL_USERS=40
  EVAL_SEEDS=6
  LIFECYCLE_USERS=2000
  LIFECYCLE_ROUNDS=8
fi

if [ "${1:-}" = "--gate" ]; then
  REF=${2:-BENCH_perf.json}
  [ -f "$REF" ] || { echo "[bench] gate: reference $REF not found" >&2; exit 2; }
  # The reference records the sizes it was measured at; reuse them so the
  # gate never compares a 200-user smoke run against a 2000-user baseline.
  # REF_BATCH/REF_UARCH come from the inference section when present ("-"
  # marks an old reference without it, which gates the round loop only).
  read -r USERS ROUNDS REF_RPS REF_ALLOCS REF_ROWS REF_BATCH REF_UARCH \
    REF_MT4_RPS REF_SVC_USERS REF_SVC_ROUNDS REF_SVC_MSGS REF_SVC_RPS \
    REF_SVC_MPS REF_SVC_PUB REF_EVAL_USERS REF_EVAL_SEEDS REF_EVAL_THREADS \
    REF_EVAL_SCENARIO REF_EVAL_RPS REF_LC_USERS REF_LC_ROUNDS \
    REF_LC_THREADS REF_LC_ENABLED <<EOF
$(python3 -c "
import json, sys
doc = json.load(open(sys.argv[1]))
rl = doc['round_loop']
inf = doc.get('inference', {})
scoring = inf.get('scoring', {})
mt4 = doc.get('round_loop_mt4', {})
svc = doc.get('service', {})
ev = doc.get('eval', {})
lc = doc.get('lifecycle', {})
print(rl['params']['users'], rl['params']['rounds'],
      rl['round_loop']['rounds_per_sec'],
      rl['steady_state']['allocs_per_round'],
      inf.get('params', {}).get('rows', '-'),
      scoring.get('flat_batch_items_per_sec', '-'),
      scoring.get('uarch', '-'),
      mt4.get('round_loop', {}).get('rounds_per_sec', '-'),
      svc.get('params', {}).get('users', '-'),
      svc.get('params', {}).get('rounds', '-'),
      svc.get('params', {}).get('ingest_msgs', '-'),
      svc.get('service', {}).get('service_rounds_per_sec', '-'),
      svc.get('ingest', {}).get('ingest_msgs_per_sec', '-'),
      svc.get('service', {}).get('publish_ms', '-'),
      ev.get('params', {}).get('users', '-'),
      ev.get('params', {}).get('seeds', '-'),
      ev.get('params', {}).get('worker_threads', '-'),
      ev.get('params', {}).get('scenario', '-'),
      ev.get('eval', {}).get('replicas_per_sec', '-'),
      lc.get('params', {}).get('users', '-'),
      lc.get('params', {}).get('rounds', '-'),
      lc.get('params', {}).get('worker_threads', '-'),
      lc.get('lifecycle', {}).get('rounds_per_sec_enabled', '-'))
" "$REF")
EOF
  MAX_PCT=${GATE_MAX_REGRESSION_PCT:-10}
  BUILD_DIR=build-perf
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DRICHNOTE_LTO=ON >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target perf_round_loop perf_inference \
    perf_service perf_eval perf_lifecycle
  TMP_DIR="$BUILD_DIR/bench-runs"
  mkdir -p "$TMP_DIR"
  best_json=""
  best_rps=0
  for i in $(seq 1 "$REPEAT"); do
    run_json="$TMP_DIR/gate_$i.json"
    "$BUILD_DIR/bench/perf_round_loop" users="$USERS" rounds="$ROUNDS" \
      json="$run_json" >/dev/null
    rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['round_loop']['rounds_per_sec'])" "$run_json")
    echo "[bench] gate run $i/$REPEAT: $rps rounds/sec" >&2
    better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_rps")
    if [ "$better" = "1" ]; then
      best_rps=$rps
      best_json=$run_json
    fi
  done
  infer_json="-"
  if [ "$REF_BATCH" != "-" ]; then
    best_batch=0
    for i in $(seq 1 "$REPEAT"); do
      run_json="$TMP_DIR/gate_infer_$i.json"
      "$BUILD_DIR/bench/perf_inference" rows="$REF_ROWS" json="$run_json" \
        >/dev/null 2>&1
      batch=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['scoring']['flat_batch_items_per_sec'])" "$run_json")
      echo "[bench] gate inference run $i/$REPEAT: $batch flat-batch items/sec" >&2
      better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$batch" "$best_batch")
      if [ "$better" = "1" ]; then
        best_batch=$batch
        infer_json=$run_json
      fi
    done
  fi
  mt4_json="-"
  if [ "$REF_MT4_RPS" != "-" ]; then
    best_mt4=0
    for i in $(seq 1 "$REPEAT"); do
      run_json="$TMP_DIR/gate_mt4_$i.json"
      "$BUILD_DIR/bench/perf_round_loop" users="$USERS" rounds="$ROUNDS" threads=4 \
        json="$run_json" >/dev/null
      rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['round_loop']['rounds_per_sec'])" "$run_json")
      echo "[bench] gate mt4 run $i/$REPEAT: $rps rounds/sec" >&2
      better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_mt4")
      if [ "$better" = "1" ]; then
        best_mt4=$rps
        mt4_json=$run_json
      fi
    done
  fi
  svc_json="-"
  if [ "$REF_SVC_RPS" != "-" ]; then
    best_svc=0
    for i in $(seq 1 "$REPEAT"); do
      run_json="$TMP_DIR/gate_service_$i.json"
      "$BUILD_DIR/bench/perf_service" users="$REF_SVC_USERS" \
        rounds="$REF_SVC_ROUNDS" ingest_msgs="$REF_SVC_MSGS" \
        json="$run_json" 2>/dev/null
      rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['service']['service_rounds_per_sec'])" "$run_json")
      echo "[bench] gate service run $i/$REPEAT: $rps service rounds/sec" >&2
      better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_svc")
      if [ "$better" = "1" ]; then
        best_svc=$rps
        svc_json=$run_json
      fi
    done
  fi
  eval_json="-"
  if [ "$REF_EVAL_RPS" != "-" ]; then
    best_eval=0
    for i in $(seq 1 "$REPEAT"); do
      run_json="$TMP_DIR/gate_eval_$i.json"
      "$BUILD_DIR/bench/perf_eval" scenario="$REF_EVAL_SCENARIO" \
        users="$REF_EVAL_USERS" seeds="$REF_EVAL_SEEDS" \
        threads="$REF_EVAL_THREADS" json="$run_json" 2>/dev/null
      rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['eval']['replicas_per_sec'])" "$run_json")
      echo "[bench] gate eval run $i/$REPEAT: $rps replicas/sec" >&2
      better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_eval")
      if [ "$better" = "1" ]; then
        best_eval=$rps
        eval_json=$run_json
      fi
    done
  fi
  lc_json="-"
  if [ "$REF_LC_ENABLED" != "-" ]; then
    best_lc=0
    for i in $(seq 1 "$REPEAT"); do
      run_json="$TMP_DIR/gate_lifecycle_$i.json"
      "$BUILD_DIR/bench/perf_lifecycle" users="$REF_LC_USERS" \
        rounds="$REF_LC_ROUNDS" threads="$REF_LC_THREADS" \
        json="$run_json" 2>/dev/null
      rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['lifecycle']['rounds_per_sec_enabled'])" "$run_json")
      echo "[bench] gate lifecycle run $i/$REPEAT: $rps enabled rounds/sec" >&2
      better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_lc")
      if [ "$better" = "1" ]; then
        best_lc=$rps
        lc_json=$run_json
      fi
    done
    # The ≤2% overhead ceiling is a property of the code, not the machine's
    # noise floor: it holds if ANY of the repeats measures under it.
    python3 - "$TMP_DIR" "$REPEAT" "$LIFECYCLE_MAX_OVERHEAD_PCT" <<'EOF'
import json, sys

runs = [json.load(open(f"{sys.argv[1]}/gate_lifecycle_{i}.json"))["lifecycle"]
        for i in range(1, int(sys.argv[2]) + 1)]
best = min(run["overhead_pct"] for run in runs)
ceiling = float(sys.argv[3])
print(f"[bench] gate: lifecycle overhead {best:+.2f}% (best of {len(runs)}, "
      f"ceiling {ceiling:g}%)")
if best > ceiling:
    print(f"[bench] gate FAIL: lifecycle tracing overhead {best:.2f}% exceeds "
          f"the {ceiling:g}% ceiling", file=sys.stderr)
    sys.exit(1)
EOF
  fi
  python3 - "$best_json" "$REF_RPS" "$REF_ALLOCS" "$MAX_PCT" \
    "$infer_json" "$REF_BATCH" "$REF_UARCH" \
    "$mt4_json" "$REF_MT4_RPS" "$svc_json" "$REF_SVC_RPS" "$REF_SVC_MPS" \
    "$eval_json" "$REF_EVAL_RPS" "$lc_json" "$REF_LC_ENABLED" "$REF_SVC_PUB" \
    "$TMP_DIR" "$REPEAT" <<'EOF'
import json, sys

run = json.load(open(sys.argv[1]))
ref_rps = float(sys.argv[2])
ref_allocs = float(sys.argv[3])
max_pct = float(sys.argv[4])

rps = run["round_loop"]["rounds_per_sec"]
allocs = run["steady_state"]["allocs_per_round"]
floor = ref_rps * (1.0 - max_pct / 100.0)
delta_pct = (rps - ref_rps) / ref_rps * 100.0

failures = []
if rps < floor:
    failures.append(
        f"rounds/sec regressed: {rps:.2f} < {floor:.2f} "
        f"(reference {ref_rps:.2f}, {delta_pct:+.1f}%, limit -{max_pct:g}%)")
if allocs > ref_allocs:
    failures.append(
        f"allocs/round grew: {allocs:g} > reference {ref_allocs:g}")

print(f"[bench] gate: {rps:.2f} rounds/sec vs reference {ref_rps:.2f} "
      f"({delta_pct:+.1f}%), allocs/round {allocs:g} (reference {ref_allocs:g})")

if sys.argv[5] == "-":
    print("[bench] gate: reference has no inference section; "
          "flat_batch gate skipped")
else:
    infer = json.load(open(sys.argv[5]))
    scoring = infer["scoring"]
    batch = scoring["flat_batch_items_per_sec"]
    uarch = scoring["uarch"]
    ref_batch = float(sys.argv[6])
    ref_uarch = sys.argv[7]
    if ref_uarch not in ("-", uarch):
        # A different ISA/kernel pairing is a different machine class, not a
        # regression; report the numbers but do not fail on them.
        print(f"[bench] gate: uarch changed ({ref_uarch} -> {uarch}); "
              f"flat_batch {batch:.0f} vs reference {ref_batch:.0f} "
              f"items/sec NOT gated")
    else:
        batch_floor = ref_batch * (1.0 - max_pct / 100.0)
        batch_delta = (batch - ref_batch) / ref_batch * 100.0
        print(f"[bench] gate: {batch:.0f} flat-batch items/sec vs reference "
              f"{ref_batch:.0f} ({batch_delta:+.1f}%) on {uarch}")
        if batch < batch_floor:
            failures.append(
                f"flat_batch_items_per_sec regressed: {batch:.0f} < "
                f"{batch_floor:.0f} (reference {ref_batch:.0f}, "
                f"{batch_delta:+.1f}%, limit -{max_pct:g}%)")

def gate_floor(name, fresh, ref):
    floor = ref * (1.0 - max_pct / 100.0)
    delta = (fresh - ref) / ref * 100.0
    print(f"[bench] gate: {fresh:.2f} {name} vs reference {ref:.2f} ({delta:+.1f}%)")
    if fresh < floor:
        failures.append(
            f"{name} regressed: {fresh:.2f} < {floor:.2f} "
            f"(reference {ref:.2f}, {delta:+.1f}%, limit -{max_pct:g}%)")

if sys.argv[8] == "-":
    print("[bench] gate: reference has no round_loop_mt4 section; mt4 gate skipped")
else:
    mt4 = json.load(open(sys.argv[8]))
    gate_floor("mt4 rounds/sec", mt4["round_loop"]["rounds_per_sec"],
               float(sys.argv[9]))

if sys.argv[10] == "-":
    print("[bench] gate: reference has no service section; service gate skipped")
else:
    svc = json.load(open(sys.argv[10]))
    gate_floor("service rounds/sec", svc["service"]["service_rounds_per_sec"],
               float(sys.argv[11]))
    gate_floor("ingest msgs/sec", svc["ingest"]["ingest_msgs_per_sec"],
               float(sys.argv[12]))
    if sys.argv[17] == "-":
        print("[bench] gate: reference has no service publish_ms; publish gate skipped")
    else:
        # Lower is better: the fastest publish of the repeats against a
        # ceiling the same percentage above the reference.
        fresh = min(json.load(open(f"{sys.argv[18]}/gate_service_{i}.json"))
                    ["service"]["publish_ms"] for i in range(1, int(sys.argv[19]) + 1))
        ref = float(sys.argv[17])
        ceiling = ref * (1.0 + max_pct / 100.0)
        delta = (fresh - ref) / ref * 100.0
        print(f"[bench] gate: {fresh:.2f} publish ms vs reference {ref:.2f} ({delta:+.1f}%)")
        if fresh > ceiling:
            failures.append(
                f"publish ms regressed: {fresh:.2f} > {ceiling:.2f} "
                f"(reference {ref:.2f}, {delta:+.1f}%, limit +{max_pct:g}%)")

if sys.argv[13] == "-":
    print("[bench] gate: reference has no eval section; eval gate skipped")
else:
    ev = json.load(open(sys.argv[13]))
    gate_floor("eval replicas/sec", ev["eval"]["replicas_per_sec"],
               float(sys.argv[14]))

if sys.argv[15] == "-":
    print("[bench] gate: reference has no lifecycle section; lifecycle gate skipped")
else:
    lc = json.load(open(sys.argv[15]))
    gate_floor("lifecycle-enabled rounds/sec",
               lc["lifecycle"]["rounds_per_sec_enabled"], float(sys.argv[16]))

if failures:
    for f in failures:
        print(f"[bench] gate FAIL: {f}", file=sys.stderr)
    sys.exit(1)
print("[bench] gate PASS")
EOF
  exit 0
fi

BUILD_DIR=build-perf
# Only the perf targets: the full Release build is not needed here, and the
# test binaries are built by scripts/check.sh in the dev tree.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DRICHNOTE_LTO=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target perf_round_loop perf_inference \
  perf_service perf_eval perf_lifecycle

TMP_DIR="$BUILD_DIR/bench-runs"
mkdir -p "$TMP_DIR"

best_json=""
best_rps=0
for i in $(seq 1 "$REPEAT"); do
  run_json="$TMP_DIR/round_loop_$i.json"
  "$BUILD_DIR/bench/perf_round_loop" users="$USERS" rounds="$ROUNDS" \
    baseline_rounds_per_sec="$BASELINE" json="$run_json"
  rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['round_loop']['rounds_per_sec'])" "$run_json")
  echo "[bench] round_loop run $i/$REPEAT: $rps rounds/sec" >&2
  better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_rps")
  if [ "$better" = "1" ]; then
    best_rps=$rps
    best_json=$run_json
  fi
done

# The same round loop at worker_threads=4: records what the persistent
# pool buys on this host (bit-identical outputs, so only speed may differ).
best_mt4_json=""
best_mt4_rps=0
for i in $(seq 1 "$REPEAT"); do
  run_json="$TMP_DIR/round_loop_mt4_$i.json"
  "$BUILD_DIR/bench/perf_round_loop" users="$USERS" rounds="$ROUNDS" threads=4 \
    json="$run_json" >/dev/null
  rps=$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['round_loop']['rounds_per_sec'])" "$run_json")
  echo "[bench] round_loop mt4 run $i/$REPEAT: $rps rounds/sec" >&2
  better=$(python3 -c "import sys; print(1 if float(sys.argv[1]) > float(sys.argv[2]) else 0)" "$rps" "$best_mt4_rps")
  if [ "$better" = "1" ]; then
    best_mt4_rps=$rps
    best_mt4_json=$run_json
  fi
done

infer_json="$TMP_DIR/inference.json"
"$BUILD_DIR/bench/perf_inference" rows="$INFER_ROWS" json="$infer_json"

# Service mode: the 1M-user fleet throughput + wire-ingest numbers.
service_json="$TMP_DIR/service.json"
"$BUILD_DIR/bench/perf_service" users="$SERVICE_USERS" rounds="$SERVICE_ROUNDS" \
  ingest_msgs="$INGEST_MSGS" json="$service_json"

# Monte-Carlo evaluation plane: replicas/sec through the wave evaluator.
eval_json="$TMP_DIR/eval.json"
"$BUILD_DIR/bench/perf_eval" users="$EVAL_USERS" seeds="$EVAL_SEEDS" \
  threads="$EVAL_THREADS" json="$eval_json"

# Lifecycle-tracing overhead: disabled vs enabled service round throughput.
lifecycle_json="$TMP_DIR/lifecycle.json"
"$BUILD_DIR/bench/perf_lifecycle" users="$LIFECYCLE_USERS" \
  rounds="$LIFECYCLE_ROUNDS" trace="$TMP_DIR/lifecycle.trace.ndjson" \
  json="$lifecycle_json"

python3 - "$best_json" "$infer_json" "$best_mt4_json" "$service_json" \
  "$eval_json" "$lifecycle_json" "$OUT" <<'EOF'
import json, sys

round_loop = json.load(open(sys.argv[1]))
inference = json.load(open(sys.argv[2]))
round_loop_mt4 = json.load(open(sys.argv[3]))
service = json.load(open(sys.argv[4]))
evaluation = json.load(open(sys.argv[5]))
lifecycle = json.load(open(sys.argv[6]))
merged = {
    "schema": "richnote-bench-v1",
    "generated_by": "scripts/bench.sh",
    "round_loop": round_loop,
    "round_loop_mt4": round_loop_mt4,
    "inference": inference,
    "service": service,
    "eval": evaluation,
    "lifecycle": lifecycle,
}
with open(sys.argv[7], "w") as out:
    json.dump(merged, out, indent=2)
    out.write("\n")

rl = round_loop["round_loop"]
base = round_loop["baseline"]
print(f"[bench] best: {rl['rounds_per_sec']:.2f} rounds/sec "
      f"(baseline {base['rounds_per_sec']:.2f}, speedup {base['speedup']:.2f}x), "
      f"allocs/round {round_loop['steady_state']['allocs_per_round']:.1f}")
print(f"[bench] mt4: {round_loop_mt4['round_loop']['rounds_per_sec']:.2f} rounds/sec "
      f"at worker_threads=4")
svc = service["service"]
ing = service["ingest"]
print(f"[bench] service: {svc['service_rounds_per_sec']:.2f} rounds/sec over "
      f"{service['params']['users']} users "
      f"({svc['user_rounds_per_sec']:.0f} user-rounds/sec, "
      f"{svc['active_users']:.0f} brokers run per round), "
      f"publish {svc['publish_ms']:.2f} ms/round, "
      f"ingest {ing['ingest_msgs_per_sec']:.0f} msgs/sec")
ev = evaluation["eval"]
print(f"[bench] eval: {ev['replicas_per_sec']:.2f} replicas/sec "
      f"({ev['replicas']} replicas on "
      f"{evaluation['params']['worker_threads']} threads)")
lc = lifecycle["lifecycle"]
print(f"[bench] lifecycle: {lc['rounds_per_sec_enabled']:.2f} rounds/sec enabled "
      f"vs {lc['rounds_per_sec_disabled']:.2f} disabled "
      f"({lc['overhead_pct']:+.2f}% tracker overhead, "
      f"{lc['rounds_per_sec_traced']:.2f} with NDJSON sink)")
print(f"[bench] wrote {sys.argv[7]}")
EOF
