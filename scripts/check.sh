#!/usr/bin/env bash
# Correctness gate: configure, build and run the full test suite — the same
# sequence CI and reviewers use. Run before every push.
#
# Usage: scripts/check.sh [--sanitize | --tsan | --release | --bench | --trace
#                          | --serve | --eval | --fuzz]
#   --sanitize   separate build-asan/ tree with -DRICHNOTE_SANITIZE=ON
#                (AddressSanitizer + UBSan). This is how the chaos soak
#                (tests/core/test_chaos_soak.cpp) is meant to be exercised:
#                hundreds of fault-injected rounds with every allocation
#                and integer op checked.
#   --tsan       separate build-tsan/ tree with -DRICHNOTE_TSAN=ON
#                (ThreadSanitizer). Runs the suites that exercise the
#                worker-thread paths: parallel forest fitting (test_ml), the
#                sharded round loop + trace merge (test_integration), and
#                the exposition server's handler pool, scrape-time refresh
#                hook and lifecycle stripes (test_obs's expo_server and
#                lifecycle suites).
#   --release    separate build-release/ tree with -DCMAKE_BUILD_TYPE=Release
#                (-O3, warnings still errors), then the full suite on it.
#                -O3 runs GCC diagnostics (-Wrestrict, -Wstringop-*) that
#                the default RelWithDebInfo tree never triggers.
#   --bench      perf smoke + regression gate: runs scripts/bench.sh --quick
#                (small fixed sizes), fails unless the emitted BENCH JSON
#                parses and carries the expected sections, re-runs the
#                inference harness under BOTH dispatch paths (the detected
#                kernel and RICHNOTE_FORCE_SCALAR=1) — each run's internal
#                bit-identity gate must hold and the reported uarch must
#                match the forced path — then runs scripts/bench.sh --gate
#                against the tracked BENCH_perf.json (>10% rounds/sec or
#                flat-batch regression, or any alloc/round growth, fails).
#   --serve      service-mode smoke under ASan+UBSan AND TSan: boots
#                `richnote serve`, drives /ingest (mixed-validity NDJSON),
#                /round, /reshard (valid and malformed bodies), /metrics and
#                /shutdown over real HTTP, drains until no broker is active,
#                and requires a clean exit with zero sanitizer reports.
#   --eval       Monte-Carlo evaluation harness: runs the ctest `eval` label
#                (estimator property tests, stopping-rule oracle, evaluator
#                determinism) under BOTH ASan+UBSan and TSan, then smokes
#                `richnote evaluate` end to end and requires byte-identical
#                JSON/CSV reports across worker counts.
#   --fuzz       differential mutation tests of the untrusted-input
#                decoders (ctest label `fuzz`, today the core/wire NDJSON
#                decoder against its reference) in the build-asan/ tree
#                with AddressSanitizer + UBSan (float-cast-overflow
#                included, reports fatal), so an out-of-range cast or a
#                read past a line's end fails the run.
#   --trace      observability smoke: runs the CLI twice at the same seed
#                with trace/metrics/manifest outputs enabled, fails unless
#                the two NDJSON streams are byte-identical, every line
#                passes the event-schema validation, and manifest_diff
#                classifies the manifest pair as identical or
#                timing-jitter-only (exit 0 or 3).
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--trace" ]; then
  BUILD_DIR=build
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target richnote
  OUT_DIR="$BUILD_DIR/trace-smoke"
  mkdir -p "$OUT_DIR"
  for run in a b; do
    "$BUILD_DIR/tools/richnote" simulate users=10 seed=3 scheduler=richnote \
      budget_mb=2 fault_intensity=1 threads=2 \
      trace="$OUT_DIR/run_$run.ndjson" metrics="$OUT_DIR/metrics_$run.json" \
      manifest="$OUT_DIR/manifest_$run.json" >/dev/null
  done
  cmp "$OUT_DIR/run_a.ndjson" "$OUT_DIR/run_b.ndjson" \
    || { echo "[check] FAIL: same-seed traces differ" >&2; exit 1; }
  cmp "$OUT_DIR/metrics_a.json" "$OUT_DIR/metrics_b.json" \
    || { echo "[check] FAIL: same-seed metrics differ" >&2; exit 1; }
  # The exit-code contract itself is pinned by its own test suite first.
  python3 scripts/test_manifest_diff.py
  # Same seed, same build: manifest_diff must see at most timing jitter
  # (0 = fully identical, 3 = timings-only). Anything else is a real diff.
  rc=0
  python3 scripts/manifest_diff.py \
    "$OUT_DIR/manifest_a.json" "$OUT_DIR/manifest_b.json" || rc=$?
  case "$rc" in
    0|3) ;;
    *) echo "[check] FAIL: same-seed manifests differ beyond timings (exit $rc)" >&2
       exit 1 ;;
  esac
  python3 - "$OUT_DIR/run_a.ndjson" <<'EOF'
import json, sys

# Event vocabulary from DESIGN.md §9: required fields per event type.
REQUIRED = {
    "plan": {"candidates", "selected", "budget_bytes", "q_bytes", "p_joules",
             "adjusted_total"},
    "decision": {"item", "level", "levels", "size_bytes", "term_queue",
                 "term_energy", "term_value", "adjusted", "utility"},
    "deliver": {"item", "level", "bytes", "resumed_bytes", "rho_joules",
                "utility", "delay_sec"},
    "round": {"planned", "sent_items", "sent_bytes", "data_budget", "network"},
    "fault": {"blackout", "brownout"},
    "duplicate": {"item"},
    "transfer_cut": {"item", "moved_bytes", "high_water_bytes", "fraction"},
    "retry_backoff": {"item", "attempts", "not_before"},
    "dead_letter": {"item", "attempts"},
    "crash_restart": set(),
    # Service-mode lifecycle stages (DESIGN.md §13); absent from batch
    # traces but part of the schema.
    "lc_ingest": {"item", "created_at"},
    "lc_admit": {"item", "wait_rounds"},
}

counts = {}
with open(sys.argv[1]) as stream:
    for lineno, line in enumerate(stream, 1):
        event = json.loads(line)  # malformed JSON raises here
        for field in ("type", "user", "round"):
            if field not in event:
                sys.exit(f"line {lineno}: missing field {field!r}")
        kind = event["type"]
        if kind not in REQUIRED:
            sys.exit(f"line {lineno}: unknown event type {kind!r}")
        missing = REQUIRED[kind] - event.keys()
        if missing:
            sys.exit(f"line {lineno}: {kind} event missing {sorted(missing)}")
        counts[kind] = counts.get(kind, 0) + 1
for kind in ("plan", "decision", "deliver", "round", "fault"):
    if counts.get(kind, 0) == 0:
        sys.exit(f"trace contains no {kind!r} events")
print(f"[check] trace OK: {sum(counts.values())} events "
      f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")
EOF
  echo "[check] --trace passed: deterministic and schema-clean"
  exit 0
fi

if [ "${1:-}" = "--bench" ]; then
  out=build-perf/BENCH_quick.json
  BENCH_OUT="$out" scripts/bench.sh --quick
  python3 - "$out" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))  # malformed JSON raises here
for section in ("round_loop", "round_loop_mt4", "inference", "service", "eval",
                "lifecycle"):
    if section not in doc:
        sys.exit(f"BENCH JSON missing section: {section}")
    if doc[section].get("schema") != "richnote-bench-v1":
        sys.exit(f"BENCH JSON section {section} has wrong schema tag")
for field in ("service_rounds_per_sec", "publish_ms", "catch_up_ns_per_round"):
    if doc["service"]["service"].get(field, 0) <= 0:
        sys.exit(f"BENCH JSON service section has non-positive {field}")
# user_rounds_per_sec counts deferred idle rounds too, so the service
# section also carries how many brokers a round actually ran.
for field in ("active_users", "caught_up_rounds"):
    value = doc["service"]["service"].get(field)
    if not isinstance(value, (int, float)) or value < 0:
        sys.exit(f"BENCH JSON service section has a missing or bad {field}: {value}")
if doc["service"]["ingest"].get("ingest_msgs_per_sec", 0) <= 0:
    sys.exit("BENCH JSON service section has non-positive ingest_msgs_per_sec")
if doc["eval"]["eval"].get("replicas_per_sec", 0) <= 0:
    sys.exit("BENCH JSON eval section has non-positive replicas_per_sec")
lifecycle = doc["lifecycle"]["lifecycle"]
for field in ("rounds_per_sec_disabled", "rounds_per_sec_enabled"):
    if lifecycle.get(field, 0) <= 0:
        sys.exit(f"BENCH JSON lifecycle section has non-positive {field}")
if "overhead_pct" not in lifecycle:
    sys.exit("BENCH JSON lifecycle section missing overhead_pct")
print(f"[check] {sys.argv[1]} is well-formed")
EOF
  # Exercise the runtime SIMD dispatch both ways: the detected kernel and
  # the forced-scalar fallback. perf_inference aborts before emitting JSON
  # if any scoring path diverges bitwise, so a parsed JSON with
  # bit_identical=true IS the cross-kernel equivalence proof.
  for mode in native scalar; do
    out_json="build-perf/BENCH_dispatch_$mode.json"
    if [ "$mode" = "scalar" ]; then
      RICHNOTE_FORCE_SCALAR=1 build-perf/bench/perf_inference rows=5000 \
        repeat=2 json="$out_json"
    else
      build-perf/bench/perf_inference rows=5000 repeat=2 json="$out_json"
    fi
    python3 - "$out_json" "$mode" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
scoring = doc["scoring"]
if scoring.get("bit_identical") is not True:
    sys.exit(f"{sys.argv[2]} dispatch run did not verify bit-identical")
uarch = scoring.get("uarch", "")
if sys.argv[2] == "scalar" and not uarch.endswith("/scalar"):
    sys.exit(f"RICHNOTE_FORCE_SCALAR=1 run reported uarch {uarch!r}")
print(f"[check] dispatch {sys.argv[2]}: uarch {uarch}, bit-identical across "
      f"forest / flat / batch / scalar-batch / threaded-batch")
EOF
  done
  scripts/bench.sh --gate
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  # Service-mode smoke under BOTH ASan+UBSan and TSan: start `richnote
  # serve`, drive every endpoint over real HTTP (mixed-validity NDJSON
  # ingest, manual rounds, a live reshard, a /metrics scrape), then shut it
  # down and require a clean exit. ASan checks the wire parser and fleet
  # teardown; TSan checks handler threads vs the round driver vs the ring.
  serve_smoke() {
    local build_dir=$1 label=$2 flag=$3
    cmake -B "$build_dir" -S . "$flag" >/dev/null
    cmake --build "$build_dir" -j "$(nproc)" --target richnote
    local out_dir="$build_dir/serve-smoke"
    rm -rf "$out_dir"
    mkdir -p "$out_dir"
    "$build_dir/tools/richnote" serve users=20 seed=3 budget_mb=5 threads=2 \
      oracle=1 port=0 port_file="$out_dir/port" trace="$out_dir/serve.ndjson" \
      >"$out_dir/serve.log" 2>&1 &
    local pid=$!
    for _ in $(seq 1 300); do
      [ -s "$out_dir/port" ] && break
      if ! kill -0 "$pid" 2>/dev/null; then
        cat "$out_dir/serve.log" >&2
        echo "[check] FAIL: serve ($label) died before binding" >&2
        exit 1
      fi
      sleep 0.1
    done
    if [ ! -s "$out_dir/port" ]; then
      kill "$pid" 2>/dev/null || true
      echo "[check] FAIL: serve ($label) never wrote its port file" >&2
      exit 1
    fi
    if ! python3 - "$(cat "$out_dir/port")" "$label" <<'EOF'
import json, sys, urllib.error, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, body):
    req = urllib.request.Request(base + path, data=body.encode(), method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

def get(path):
    with urllib.request.urlopen(base + path, timeout=30) as r:
        return r.status, r.read().decode()

status, body = get("/healthz")
assert status == 200, (status, body)
health = json.loads(body)
assert health["status"] == "ok", body
for key in ("git_describe", "build_type", "compiler", "uarch"):
    assert key in health, f"/healthz missing {key}: {body}"

# Unknown paths list everything that is mounted, /exemplars included.
try:
    get("/definitely-not-a-path")
    assert False, "404 expected"
except urllib.error.HTTPError as e:
    listing = e.read().decode()
    for path in ("/healthz", "/metrics", "/progress", "/exemplars", "/ingest"):
        assert path in listing, f"404 listing missing {path}: {listing}"

lines = "\n".join(
    json.dumps({"id": i, "user": i % 20, "type": "friend_feed", "track": 3,
                "created_at": 0, "social_tie": 0.5, "track_pop": 50,
                "album_pop": 50, "artist_pop": 50})
    for i in range(1, 9))
status, body = post("/ingest", lines + "\nthis is not json\n")
reply = json.loads(body)
assert status == 400, (status, body)          # the malformed line -> 400
assert reply["accepted"] == 8, body
assert reply["parse_errors"] == 1, body

for _ in range(3):
    status, body = post("/round", "")
    assert status == 200, (status, body)

status, body = post("/reshard", "3")
assert status == 200 and json.loads(body)["worker_threads"] == 3, (status, body)
# Only a bare decimal integer or {"threads":K} is a thread count, and K is
# capped by the worker pool; anything else is a named 400, not a reshard.
for bad, error in (("-3", "bad threads"), ("2x", "bad threads"),
                   ('{"threads":4,"x":1}', "bad threads"),
                   ('{"threads":99999999}', "threads out of range")):
    status, body = post("/reshard", bad)
    assert status == 400 and json.loads(body)["error"] == error, (bad, status, body)
status, body = post("/round", "")
assert status == 200, (status, body)

status, metrics = get("/metrics")
assert status == 200
for needle in ("richnote_service_ingest_accepted_total 8",
               "richnote_service_ingest_rejected_parse_total 1",
               "richnote_service_rounds_total 4",
               "richnote_service_reshards_total 1",
               # Lifecycle-era vocabulary (DESIGN.md §13): svc counters,
               # stage-latency histograms and per-endpoint RED labels.
               "richnote_svc_ingest_rejected_backpressure 0",
               "richnote_svc_e2e_us_bucket",
               "richnote_svc_ingest_to_admit_us_count",
               'richnote_svc_http_requests_total{endpoint="ingest"} 1',
               'richnote_svc_http_duration_us_bucket{endpoint="round"',
               "# HELP richnote_svc_ingest_rejected_backpressure"):
    assert needle in metrics, f"missing from /metrics: {needle}"

# Publish on scrape: /metrics is rendered when scraped, from totals taken
# at most once per round, so two scrapes with no round between them agree
# on every run aggregate, and /progress reports the same round.
def run_lines(text):
    return [line for line in text.splitlines()
            if line.startswith(("richnote_delivery_", "richnote_run_"))]
status, again = get("/metrics")
assert status == 200
assert run_lines(again) and run_lines(again) == run_lines(metrics), \
    "two scrapes without a round between them disagree"
status, body = get("/progress")
rounds_total = [line for line in again.splitlines()
                if line.startswith("richnote_service_rounds_total ")]
assert rounds_total, "missing from /metrics: richnote_service_rounds_total"
assert json.loads(body)["round"] == int(rounds_total[0].split()[1]) == 4, \
    (body, rounds_total)

# An at-least-once replay of id 1: admitted again, suppressed by the
# broker, so /progress must count arrivals after dedup, exactly as the
# richnote.delivery.arrived_total series does.
status, body = post("/ingest", lines.splitlines()[0] + "\n")
assert status == 200 and json.loads(body)["accepted"] == 1, (status, body)
status, body = post("/round", "")
assert status == 200, (status, body)
status, body = get("/progress")
progress = json.loads(body)
status, metrics = get("/metrics")
series = dict(line.split(" ", 1) for line in metrics.splitlines()
              if line and not line.startswith("#"))
assert progress["arrived_total"] == int(series["richnote_delivery_arrived_total"]) == 8, \
    (progress, series["richnote_delivery_arrived_total"])
assert progress["duplicates_suppressed"] == 1, progress
assert series["richnote_service_admitted_total"] == "9", series["richnote_service_admitted_total"]

# Drain: once every queue is empty a round runs no broker at all.
for _ in range(200):
    status, body = post("/round", "")
    assert status == 200, (status, body)
    status, metrics = get("/metrics")
    active = [line for line in metrics.splitlines()
              if line.startswith("richnote_service_active_users ")]
    assert active, "missing from /metrics: richnote_service_active_users"
    if active[0] == "richnote_service_active_users 0":
        break
else:
    raise AssertionError(f"brokers still active after 200 drain rounds: {active[0]}")
assert "richnote_service_caught_up_rounds_total " in metrics, metrics
assert "richnote_service_reshards_total 1" in metrics  # the rejected ones did not count

status, body = get("/exemplars")
assert status == 200, (status, body)
exemplars = json.loads(body)["exemplars"]
assert isinstance(exemplars, list), body
if exemplars:  # worst e2e first; empty until the first completed delivery
    assert exemplars[0]["e2e_us"] >= exemplars[-1]["e2e_us"], body

status, body = post("/shutdown", "")
assert status == 200, (status, body)
print(f"[check] serve smoke ({sys.argv[2]}): every endpoint OK")
EOF
    then
      kill "$pid" 2>/dev/null || true
      cat "$out_dir/serve.log" >&2
      echo "[check] FAIL: serve smoke ($label) endpoint checks failed" >&2
      exit 1
    fi
    if ! wait "$pid"; then
      cat "$out_dir/serve.log" >&2
      echo "[check] FAIL: serve ($label) did not exit cleanly after /shutdown" >&2
      exit 1
    fi

    # `richnote explain` is a pure function of the trace bytes: two runs
    # over the lifecycle NDJSON the server just streamed must emit
    # identical output (and actually reconstruct a causal chain).
    [ -s "$out_dir/serve.ndjson" ] \
      || { echo "[check] FAIL: serve ($label) wrote no lifecycle trace" >&2; exit 1; }
    "$build_dir/tools/richnote" explain "$out_dir/serve.ndjson" id=1 \
      >"$out_dir/explain_a.txt"
    "$build_dir/tools/richnote" explain "$out_dir/serve.ndjson" id=1 \
      >"$out_dir/explain_b.txt"
    cmp "$out_dir/explain_a.txt" "$out_dir/explain_b.txt" \
      || { echo "[check] FAIL: explain output differs across reruns ($label)" >&2
           exit 1; }
    grep -q "ingested" "$out_dir/explain_a.txt" \
      || { echo "[check] FAIL: explain found no ingest stage ($label)" >&2; exit 1; }
    echo "[check] serve smoke ($label) passed: clean shutdown, no sanitizer reports"
  }

  # A deliberately tiny admission ring turns into 503s, never losses: 8
  # ingests against 4 slots must report exactly 4 backpressure rejections,
  # in the reply and in the richnote.svc.* counter.
  serve_backpressure() {
    local build_dir=$1 label=$2
    local out_dir="$build_dir/serve-smoke-bp"
    rm -rf "$out_dir"
    mkdir -p "$out_dir"
    "$build_dir/tools/richnote" serve users=20 seed=3 budget_mb=5 threads=1 \
      oracle=1 port=0 queue_capacity=4 port_file="$out_dir/port" \
      >"$out_dir/serve.log" 2>&1 &
    local pid=$!
    for _ in $(seq 1 300); do
      [ -s "$out_dir/port" ] && break
      kill -0 "$pid" 2>/dev/null \
        || { cat "$out_dir/serve.log" >&2
             echo "[check] FAIL: serve ($label, bp) died before binding" >&2
             exit 1; }
      sleep 0.1
    done
    if ! python3 - "$(cat "$out_dir/port")" "$label" <<'EOF'
import json, sys, urllib.error, urllib.request

base = f"http://127.0.0.1:{sys.argv[1]}"

def post(path, body):
    req = urllib.request.Request(base + path, data=body.encode(), method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

lines = "\n".join(
    json.dumps({"id": i, "user": i % 20, "type": "friend_feed", "track": 3,
                "created_at": 0, "social_tie": 0.5, "track_pop": 50,
                "album_pop": 50, "artist_pop": 50})
    for i in range(1, 9))
status, body = post("/ingest", lines)
reply = json.loads(body)
assert status == 503, (status, body)  # a full ring is backpressure
assert reply["accepted"] == 4, body
assert reply["backpressure"] == 4, body

status, body = post("/round", "")
assert status == 200, (status, body)
with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
    metrics = r.read().decode()
assert "richnote_svc_ingest_rejected_backpressure 4" in metrics, metrics
assert "richnote_service_ingest_accepted_total 4" in metrics

status, body = post("/shutdown", "")
assert status == 200, (status, body)
print(f"[check] serve backpressure ({sys.argv[2]}): 503 + exact rejected count")
EOF
    then
      kill "$pid" 2>/dev/null || true
      cat "$out_dir/serve.log" >&2
      echo "[check] FAIL: serve backpressure smoke ($label) failed" >&2
      exit 1
    fi
    wait "$pid" \
      || { cat "$out_dir/serve.log" >&2
           echo "[check] FAIL: serve ($label, bp) unclean exit" >&2; exit 1; }
  }

  serve_smoke build-asan asan -DRICHNOTE_SANITIZE=ON
  serve_backpressure build-asan asan
  serve_smoke build-tsan tsan -DRICHNOTE_TSAN=ON
  serve_backpressure build-tsan tsan
  exit 0
fi

if [ "${1:-}" = "--eval" ]; then
  # Evaluation-harness suite under both sanitizers: ASan+UBSan checks the
  # statistics kernels and report writers, TSan checks the wave fan-out
  # over the persistent worker pool against the sequential fold.
  for pair in "build-asan:-DRICHNOTE_SANITIZE=ON" "build-tsan:-DRICHNOTE_TSAN=ON"; do
    build_dir=${pair%%:*}
    flag=${pair#*:}
    cmake -B "$build_dir" -S . "$flag" >/dev/null
    cmake --build "$build_dir" -j "$(nproc)" --target test_eval
    ctest --test-dir "$build_dir" -L eval --output-on-failure -j "$(nproc)"
  done
  # CLI determinism smoke: the evaluate reports must be byte-identical for
  # any worker count (the tests pin this in-process; this pins the binary).
  cmake -B build -S . >/dev/null
  cmake --build build -j "$(nproc)" --target richnote
  OUT_DIR=build/eval-smoke
  mkdir -p "$OUT_DIR"
  for t in 1 4; do
    build/tools/richnote evaluate scenario=flash_crowd users=12 trees=4 seeds=6 \
      min_samples=3 threads="$t" json="$OUT_DIR/eval_t$t.json" \
      csv="$OUT_DIR/eval_t$t.csv" >/dev/null
  done
  cmp "$OUT_DIR/eval_t1.json" "$OUT_DIR/eval_t4.json" \
    || { echo "[check] FAIL: evaluate JSON differs across worker counts" >&2; exit 1; }
  cmp "$OUT_DIR/eval_t1.csv" "$OUT_DIR/eval_t4.csv" \
    || { echo "[check] FAIL: evaluate CSV differs across worker counts" >&2; exit 1; }
  echo "[check] --eval passed: sanitizer-clean and byte-deterministic"
  exit 0
fi

if [ "${1:-}" = "--fuzz" ]; then
  BUILD_DIR=build-asan
  cmake -B "$BUILD_DIR" -S . -DRICHNOTE_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_fuzz
  # UBSan reports are fatal here: a fuzz run that merely prints one passes.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$BUILD_DIR" -L fuzz --output-on-failure -j "$(nproc)"
  echo "[check] --fuzz passed: decoders agree with their references, sanitizer-clean"
  exit 0
fi

if [ "${1:-}" = "--release" ]; then
  BUILD_DIR=build-release
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . -DRICHNOTE_TSAN=ON
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_ml test_integration test_obs
  "$BUILD_DIR/tests/test_ml"
  "$BUILD_DIR/tests/test_integration"
  "$BUILD_DIR/tests/test_obs" --gtest_filter='expo_server_suite.*:lifecycle_suite.*'
  exit 0
fi

BUILD_DIR=build
if [ "${1:-}" = "--sanitize" ]; then
  BUILD_DIR=build-asan
  cmake -B "$BUILD_DIR" -S . -DRICHNOTE_SANITIZE=ON
else
  cmake -B "$BUILD_DIR" -S .
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
