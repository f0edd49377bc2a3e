#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format.
#
# The workspace vendors every external dependency under vendor/, so all
# steps run with --offline and never touch a registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> one home for the ICS-04 relay rule"
# Which path proves a recv/ack/timeout lives in relayer::msg (and ibc-core's own handlers).
if grep -rnE 'packet_(commitment|ack|receipt)\(' crates/*/src --include='*.rs' |
    grep -vE '^crates/(ibc-core/|relayer/src/msg\.rs:)'; then
    echo "packet path functions called outside crates/ibc-core and relayer/src/msg.rs" >&2
    exit 1
fi

echo "==> one home for the opening handshake"
# Who answers an Init with a Try lives in ibc_core::handshake (and ibc-core's own handlers and tests).
if grep -rnE '(conn|chan)_open_try\(' crates/*/src crates/bench/benches tests examples --include='*.rs' |
    grep -vE '^crates/ibc-core/'; then
    echo "handshake Try steps written out outside crates/ibc-core" >&2
    exit 1
fi

echo "==> one home for proof-at-height history"
# A past state is the nodes later writes retired (sealable_trie's history.rs), never a copy of
# the trie. A tripwire for the spellings the old code used, not a type check: it matches only
# `store().clone()`, `store_mut().clone()` and `trie.clone()` (not `to_owned()`, `Trie::clone(&t)` or
# a trie bound to another name), and scans each file only up to its first column-0 #[cfg(test)].
if find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /(store(_mut)?\(\)|trie)\.clone\(\)/ { print FILENAME ":" FNR ":" $0 }' {} + |
    grep .; then
    echo "a whole trie or store cloned outside tests; checkpoint it instead" >&2
    exit 1
fi

echo "==> one codec path"
# Typed values reach JSON text and come back through serde_json's streaming sink (write.rs) and
# source (read.rs) alone: no `Value` tree in between, and `Value` itself written and read by the
# same two, as one more Serialize/Deserialize type. The tree writer and parser survive only as the
# oracle under vendor/serde_json/tests/. A tripwire for the two ways back, not a proof: it sees a
# detour only when spelled `to_value(` / `from_value(` (the two public wrappers of those names
# excepted; a `ValueSerializer` driven by hand passes), and a second writer or parser only when it
# names `Value::Array` or `Value::Object`, as one that walks or builds the tree directly must.
if grep -nE '(to|from)_value\(|Value::(Array|Object)' vendor/serde_json/src/*.rs |
    grep -vE 'pub fn (to|from)_value|serde::(to|from)_value\(value\)\.map_err'; then
    echo "vendor/serde_json/src builds or walks a Value tree; stream through write.rs/read.rs" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> trace explorer (telemetry smoke test)"
cargo run --release --offline --example trace_explorer > /dev/null

echo "==> 1-day paper run with telemetry run report"
cargo run --release --offline -p testnet --example paper_timing -- 1 \
    --run-report BENCH_run_report.json
python3 - <<'PY'
import json, sys

with open("BENCH_run_report.json") as f:
    report = json.load(f)

missing = [key for key in ("meta", "metrics", "packets", "violations", "journal_len")
           if key not in report]
if missing:
    sys.exit(f"BENCH_run_report.json missing sections: {missing}")
if not report["packets"]:
    sys.exit("BENCH_run_report.json records no packet traces")
metrics = report["metrics"]
for kind in ("counters", "gauges", "histograms"):
    if kind not in metrics:
        sys.exit(f"BENCH_run_report.json metrics missing {kind}")
if not metrics["counters"]:
    sys.exit("BENCH_run_report.json records no counters")
if report["journal_len"] <= 0:
    sys.exit("BENCH_run_report.json journal is empty")
completed = sum(1 for p in report["packets"] if p["completed"])
print(f"run report OK: {len(report['packets'])} packet traces "
      f"({completed} completed), {report['journal_len']} journal records")
PY

echo "==> mesh scaling smoke run (multi-hop routing)"
cargo run --release --offline -p bench --bin mesh_scaling -- \
    --chains 3 --hops 2 --days 1 --quiet \
    --json BENCH_mesh_scaling.json --run-report BENCH_mesh_run_report.json
python3 - <<'PY'
import json, sys

with open("BENCH_mesh_scaling.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}
for key in ("round_trip_delivered", "round_trip_conserved"):
    if values.get(key) != 1:
        sys.exit(f"mesh_scaling: {key} != 1 ({values.get(key)}) — "
                 "A->B->C round trip must deliver with conserved supply")

with open("BENCH_mesh_run_report.json") as f:
    report = json.load(f)
routes = report.get("routes", [])
if not routes:
    sys.exit("BENCH_mesh_run_report.json records no route traces")
multi_hop = [r for r in routes
             if sum(1 for e in r["events"] if e["name"] == "packet.send") >= 2]
if not multi_hop:
    sys.exit("no route trace links >= 2 packet.send events — "
             "multi-hop legs are not being tied to one route")
if not any(r["delivered"] for r in multi_hop):
    sys.exit("no multi-hop route delivered")
print(f"mesh run report OK: {len(routes)} route traces, "
      f"{len(multi_hop)} multi-hop, all invariants hold")
PY

echo "==> apps mix (stacked application/middleware framework under mixed traffic)"
cargo run --release --offline -p bench --bin apps_mix -- \
    --users 96 --hours 2 --seed 2026 \
    --quiet --json BENCH_apps.json
cargo run --release --offline -p bench --bin apps_mix -- \
    --users 96 --hours 2 --seed 2026 \
    --quiet --json BENCH_apps.rerun.json
cmp BENCH_apps.json BENCH_apps.rerun.json \
    || { echo "apps_mix: same-seed reruns differ — the app stacks are not deterministic"; exit 1; }
rm BENCH_apps.rerun.json
python3 - <<'PY'
import json, sys

with open("BENCH_apps.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}

for app in ("transfer", "nft", "ica"):
    if values.get(f"apps_{app}_received", 0) < 1:
        sys.exit(f"apps_mix: the {app} app received no packets under the "
                 "airdrop storm — its stack is not wired into the mesh")
if values.get("delivered", 0) < 1:
    sys.exit("apps_mix: no routed transfer delivered end to end")
if values.get("fee_imbalance") != 0:
    sys.exit(f"apps_mix: fee imbalance {values.get('fee_imbalance')} != 0 — "
             "escrowed fees leaked past the ICS-29 middleware")
if values.get("fee_conserved") != 1:
    sys.exit("apps_mix: escrowed != paid + refunded + pending — "
             "the fee ledger does not balance")
if values.get("fee_escrowed", 0) < 1:
    sys.exit("apps_mix: no fees were escrowed — the fee middleware is inert")
if values.get("fee_alerts", 0) != 0:
    sys.exit(f"apps_mix: the fee-conservation detector fired "
             f"{values.get('fee_alerts'):.0f} alert(s) on a healthy run")
if values.get("nft_supply_drift") != 0:
    sys.exit(f"apps_mix: {values.get('nft_supply_drift'):.0f} NFT voucher "
             "token(s) lack escrow backing — class prefixes leak supply")
if values.get("determinism_ok") != 1:
    sys.exit("apps_mix: in-bench double runs produced different telemetry reports")
print(f"apps mix OK: transfer/nft/ica received "
      f"{values['apps_transfer_received']:.0f}/{values['apps_nft_received']:.0f}/"
      f"{values['apps_ica_received']:.0f} packets; fees escrowed "
      f"{values['fee_escrowed']:.0f} with zero imbalance; NFT supply clean; "
      "deterministic")
PY

echo "==> monitor eval (chaos-scored detection quality, paper outage MTTD)"
cargo run --release --offline -p bench --bin monitor_eval -- \
    --quiet --json BENCH_monitor_eval.json
cargo run --release --offline -p bench --bin monitor_eval -- \
    --quiet --json BENCH_monitor_eval.rerun.json
cmp BENCH_monitor_eval.json BENCH_monitor_eval.rerun.json \
    || { echo "monitor_eval: same-seed reruns differ — eval is not deterministic"; exit 1; }
rm BENCH_monitor_eval.rerun.json
python3 - <<'PY'
import json, sys

with open("BENCH_monitor_eval.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}

if values.get("kinds_detected") != values.get("kinds_total"):
    sys.exit(f"monitor_eval: only {values.get('kinds_detected')} of "
             f"{values.get('kinds_total')} fault kinds detected")
if values.get("paper_outage_detected", 0) < 1:
    sys.exit("monitor_eval: client-staleness never fired during the "
             "paper day-11 outage")
mttd = values.get("paper_outage_mttd_ms")
budget = values.get("paper_mttd_budget_ms")
outage = values.get("paper_outage_duration_ms")
if mttd is None or mttd > budget:
    sys.exit(f"monitor_eval: paper outage MTTD {mttd} ms exceeds the "
             f"worst-case budget {budget} ms")
if mttd * 2 > outage:
    sys.exit(f"monitor_eval: MTTD {mttd} ms is not well below the "
             f"{outage} ms outage — detection would not beat the fault")
if values.get("paper_precision") != 1.0:
    sys.exit(f"monitor_eval: paper-run staleness precision "
             f"{values.get('paper_precision')} != 1.0 (false alarms)")
print(f"monitor eval OK: {values['kinds_detected']}/{values['kinds_total']} "
      f"fault kinds detected; paper outage MTTD {mttd/60000:.1f} min "
      f"(budget {budget/60000:.1f} min, outage {outage/60000:.1f} min)")
PY

echo "==> throughput (heavy-traffic workload engine on the discrete-event path)"
cargo run --release --offline -p bench --bin throughput -- \
    --users 1000 --gap-ms 30000 --hours 2 --seed 2026 \
    --quiet --json BENCH_throughput.json
cargo run --release --offline -p bench --bin throughput -- \
    --users 1000 --gap-ms 30000 --hours 2 --seed 2026 \
    --quiet --json BENCH_throughput.rerun.json
python3 - <<'PY'
import json, sys

def values(path):
    with open(path) as f:
        bench = json.load(f)
    return {k: v for s in bench["sections"] for k, v in s["values"].items()}

vals = values("BENCH_throughput.json")
rerun = values("BENCH_throughput.rerun.json")

# Wall-clock timings legitimately differ between runs; everything the
# simulation itself produced must not.
timing = ("_wall_ms", "_sim_wall_ratio", "packets_per_sec", "sim_wall_ratio", "_speedup",
          "event_loop_speedup")
sim_keys = [k for k in vals if not k.endswith(timing)]
diffs = [k for k in sim_keys if vals.get(k) != rerun.get(k)]
if diffs:
    sys.exit(f"throughput: same-seed reruns differ on {diffs} — "
             "the heavy-traffic path is not deterministic")

if vals.get("determinism_ok") != 1:
    sys.exit("throughput: in-bench double runs produced different telemetry reports")
if vals.get("delivered_total", 0) < 300:
    sys.exit(f"throughput: only {vals.get('delivered_total')} packets delivered "
             "end to end — the heavy-traffic floor is 300")
if vals.get("packets_per_sec", 0) < 50:
    sys.exit(f"throughput: {vals.get('packets_per_sec'):.0f} packets/s is below "
             "the 50/s floor — the hot path has regressed")
if vals.get("event_loop_speedup", 0) < 1.0:
    sys.exit(f"throughput: quiet-stretch speedup {vals.get('event_loop_speedup'):.2f}x "
             "< 1.0 — the discrete-event loop no longer beats per-slot polling")
if vals.get("loaded_speedup", 0) < 0.75:
    sys.exit(f"throughput: loaded speedup {vals.get('loaded_speedup'):.2f}x < 0.75 — "
             "the event loop fell behind the polling loop under load")
print(f"throughput OK: {vals['delivered_total']:.0f} delivered at "
      f"{vals['packets_per_sec']:.0f} packets/s (sim/wall {vals['sim_wall_ratio']:.0f}x), "
      f"speedup {vals['event_loop_speedup']:.2f}x quiet / {vals['loaded_speedup']:.2f}x loaded, "
      "deterministic")
PY
rm BENCH_throughput.rerun.json

echo "==> latency attribution (causal trace graphs, critical-path stages, per-app tables)"
cargo run --release --offline -p bench --bin latency_attribution -- \
    --users 400 --hours 2 --seed 2026 \
    --quiet --json BENCH_latency_attribution.json
cargo run --release --offline -p bench --bin latency_attribution -- \
    --users 400 --hours 2 --seed 2026 \
    --quiet --json BENCH_latency_attribution.rerun.json
cmp BENCH_latency_attribution.json BENCH_latency_attribution.rerun.json \
    || { echo "latency_attribution: same-seed reruns differ — attribution is not deterministic"; exit 1; }
rm BENCH_latency_attribution.rerun.json
python3 - <<'PY'
import json, sys

with open("BENCH_latency_attribution.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}

coverage = values.get("coverage_pct", 0)
if coverage < 95:
    sys.exit(f"latency_attribution: named stages explain only {coverage:.1f}% "
             "of end-to-end time — the 95% coverage floor has regressed")
share_sum = values.get("share_sum_pct", 0)
if not 99.5 <= share_sum <= 100.5:
    sys.exit(f"latency_attribution: stage shares sum to {share_sum:.2f}% — "
             "the critical path no longer partitions the end-to-end span")
if values.get("completed", 0) < 100:
    sys.exit(f"latency_attribution: only {values.get('completed'):.0f} completed "
             "lifecycles attributed — the flash crowd floor is 100")
if values.get("apps_present") != 1:
    sys.exit("latency_attribution: a shipped app (transfer/nft/ica) has no "
             "attributed packets on the mesh")
for app in ("transfer", "nft", "ica"):
    if f"app_{app}_p95_ms" not in values:
        sys.exit(f"latency_attribution: per-app percentiles missing for {app}")
if values.get("determinism_ok") != 1:
    sys.exit("latency_attribution: in-bench double runs produced different "
             "graphs or attribution tables")
if values.get("no_perturbation") != 1:
    sys.exit("latency_attribution: building the causal graphs changed the run "
             "report bytes — the engine is not a pure observer")
print(f"latency attribution OK: {coverage:.1f}% stage coverage over "
      f"{values['completed']:.0f} lifecycles; per-app p95 "
      f"{values['app_transfer_p95_ms']/1000:.0f}/{values['app_nft_p95_ms']/1000:.0f}/"
      f"{values['app_ica_p95_ms']/1000:.0f} s (transfer/nft/ica); "
      "deterministic, pure observer")
PY

echo "==> self-profile (wall-clock phase attribution on the storm workload)"
cargo run --release --offline -p bench --bin profile -- \
    --users 1000 --gap-ms 30000 --hours 2 --seed 2026 \
    --quiet --json BENCH_profile_summary.json --profile-json BENCH_profile.json
python3 - <<'PY'
import json, sys

with open("BENCH_profile.json") as f:
    profile = json.load(f)
entries = profile.get("entries", [])
if not entries:
    sys.exit("BENCH_profile.json has no profile entries")
step = next((e for e in entries if e["path"] == "step"), None)
if step is None:
    sys.exit("BENCH_profile.json does not profile the harness step phase")
subsystems = [e for e in entries if e["depth"] == 1]
if not subsystems:
    sys.exit("BENCH_profile.json attributes no step time to subsystems")
top = max(subsystems, key=lambda e: e["wall_ms"])

with open("BENCH_profile_summary.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}
attributed = values.get("attributed_pct", 0)
if attributed < 90:
    sys.exit(f"profile: only {attributed:.1f}% of step wall time lands in "
             "named phases — the 90% attribution floor has regressed")
if "telemetry_self_pct" not in values:
    sys.exit("profile: telemetry self-cost is not reported")
if values.get("no_perturbation") != 1:
    sys.exit("profile: profiled and bare same-seed runs diverged — "
             "the profiler is not a pure observer")
print(f"profile OK: {attributed:.1f}% of step time attributed; top subsystem "
      f"{top['name']} ({top['wall_ms']:.0f} ms wall); telemetry self-cost "
      f"{values['telemetry_self_pct']:.2f}% of step time")
PY

echo "==> telemetry overhead (sampled pipeline budget gate)"
cargo run --release --offline -p bench --bin telemetry_overhead -- \
    --users 1000 --gap-ms 30000 --hours 2 --seed 2026 --keep 8 --reps 9 \
    --quiet --json BENCH_overhead.json
python3 - <<'PY'
import json, sys

with open("BENCH_overhead.json") as f:
    bench = json.load(f)
values = {k: v for s in bench["sections"] for k, v in s["values"].items()}

# Budget: the pipeline's own cost — the median paired difference to the
# blind run of the same repetition, per journal line of the full run. An
# absolute figure, so a faster simulator cannot blow it. Ten gate runs on
# the CI VM read 3-12 us at nine repetitions (-2 to 22 at five, too close
# to the budget to call the gate stable).
BUDGET_US_PER_LINE = 25
costs = {m: values.get(f"{m}_cost_us_per_line") for m in ("sampled", "full")}
for mode, cost in costs.items():
    if cost is None or cost > BUDGET_US_PER_LINE:
        sys.exit(f"telemetry_overhead: {mode} mode costs {cost} us per full-mode "
                 f"journal line — the {BUDGET_US_PER_LINE} us budget is blown")
if values.get("sampled_deterministic") != 1:
    sys.exit("telemetry_overhead: same-seed sampled reruns are not byte-identical")
if values.get("monitor_parity") != 1:
    sys.exit("telemetry_overhead: sampled run's monitor alerts diverged from "
             "the full run — an aggregate got thinned")
if values.get("traces_dropped", 0) <= 0:
    sys.exit("telemetry_overhead: sampling dropped no traces — the sampler "
             "is not thinning anything")
print(f"telemetry overhead OK: sampled {costs['sampled']:+.1f}, full {costs['full']:+.1f} us per "
      f"journal line vs disabled (budget {BUDGET_US_PER_LINE}); "
      f"{values['thinned_pct']:.0f}% of traces thinned; deterministic with "
      "monitor parity")
PY

echo "CI green."
