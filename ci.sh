#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format, then every bench artifact
# written fresh under target/ci/ and checked once against gates.json.
#
# The workspace vendors every external dependency under vendor/, so all
# steps run with --offline and never touch a registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> benchmark/ builds and passes its tests"
# The benchmark is a workspace of its own (benchmark/Cargo.toml) that calls the crates' public APIs,
# so the workspace build above does not compile it. Build it and run its smoke tests here, in the
# same target directory, so a change to an API it calls fails CI instead of the next benchmark run.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target} \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# outside_tests REGEX DIR...: the lines of the .rs files under DIRs that match the awk REGEX, each
# file read only up to its first column-0 #[cfg(test)].
outside_tests() {
    RE=$1 find "${@:2}" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && $0 ~ ENVIRON["RE"] { print FILENAME ":" FNR ":" $0 }' {} +
}

# tripwire N MESSAGE REGEX DIR...: the tripwire holds when exactly N of the lines `outside_tests REGEX
# DIR...` prints, leaving out those that match the ERE in $EXCEPT, are found; otherwise it prints
# them and MESSAGE and fails. N is 0 for a spelling that must not come back and 1 for the one home
# of a rule.
tripwire() {
    local found
    found=$(outside_tests "$3" "${@:4}" | grep -vE "${EXCEPT:-^$}" || true)
    if [ "$(printf '%s' "$found" | grep -c .)" -ne "$1" ]; then
        [ -z "$found" ] || echo "$found" >&2
        echo "$2" >&2
        exit 1
    fi
}

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
tripwire 0 "a whole trie or store cloned outside tests; checkpoint it instead" \
    '(store(_mut)?\(\)|trie)\.clone\(\)' crates/*/src

echo "==> the trie hashes on read"
# A trie write leaves the nodes it makes dirty; `Trie::settle` hashes them, each once, when a root,
# proof, checkpoint, seal or serialisation reads one, and `verify_node` recomputes hashes to audit
# them. Hashing every node as it was written was 46 % of `storm_drain`'s SHA-256 work. A tripwire
# for a `Node::hash` call spelled `.hash()` in any other function of crates/sealable-trie/src
# (proof.rs aside: its `.hash()` is `ProofNode::hash`), scanning each file up to its first column-0
# #[cfg(test)].
HASHED_IN=$(find crates/sealable-trie/src -name '*.rs' ! -name proof.rs -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    /^ *(pub(\(crate\))? )?fn [a-z_0-9]+/ { fn = $0; sub(/^ *(pub(\(crate\))? )?fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn) }
    !in_tests && /\.hash\(\)/ { print FILENAME ":" FNR ": in fn " fn }' {} +)
if echo "$HASHED_IN" | grep -vE ': in fn (settle|verify_node)$' | grep .; then
    echo "crates/sealable-trie/src hashes a node outside Trie::settle and verify_node; mark it dirty" >&2
    exit 1
fi

echo "==> one home for mesh proofs: the committed height"
# The mesh relayer proves a step at its source's latest commit (`CounterpartyChain::prove_at`), as a
# stock relayer reads a committed block; the live-store proof it used only while that store still
# equalled the commit survives as the oracle in crates/relayer/tests/committed_proofs.rs. A tripwire
# for the spelling the old code used, `store().prove(`, scanning each file up to its first column-0
# #[cfg(test)].
tripwire 0 "crates/mesh/src proves from a live store outside tests; prove at the committed height" \
    'store\(\)\.prove\(' crates/mesh/src

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

echo "==> no division in the signature arithmetic"
# Both Schnorr moduli are pseudo-Mersenne and reduce by folding (schnorr.rs `fold`); a 128-bit `%`
# is a call into software division, 19 % of `paper_month` when it was there. It survives only as
# the oracle in crates/sim-crypto/tests/. A tripwire for the two spellings the old code used, `… as
# u128) % …` and `% P as u128` / `% Q as u128`, scanning each file up to its first column-0 #[cfg(test)].
tripwire 0 "128-bit modulo in crates/sim-crypto/src; reduce with schnorr::fold" \
    'as u128\) %|% [PQ] as u128' crates/sim-crypto/src

echo "==> one home for counterparty signing"
# The counterparty records who voted and signs a header the first time it is read (commit.rs
# `CpCommit::header`); block production signs nothing, and the loop that signed every commit as it
# was produced survives only as the oracle in crates/counterparty-sim/tests/. A tripwire for a second
# signing site spelled `.sign(`, scanning each file up to its first column-0 #[cfg(test)].
tripwire 1 "crates/counterparty-sim/src must sign in exactly one place, the first read of a header" \
    '\.sign\(' crates/counterparty-sim/src

echo "==> one stake-quorum light client"
# The guest's client of the counterparty and the counterparty's client of the guest are one
# `ibc_core::client::QuorumClient` over two header formats; the quorum, misbehaviour and
# consensus-state rules are written there once, and the two clients it replaced survive only as the
# oracles in crates/{core,counterparty-sim}/tests/. A tripwire for a second spelling of the stake
# quorum, `* 2 / 3` or `* 3 <=`, and for a third `impl … LightClient for` beside QuorumClient and
# MockClient, scanning each file up to its first column-0 #[cfg(test)].
tripwire 1 "the 2/3 rule must have one home, ibc_core::client::quorum" \
    '\* 2 / 3|\* 3 <=' crates/*/src
tripwire 2 "crates/*/src must implement LightClient only for QuorumClient and MockClient" \
    'impl.*LightClient for' crates/*/src

echo "==> the payer balance is read behind the bank's stamp"
# `Testnet::step` re-reads what the host bank holds (the relayer's payer balance, and the guest
# contract, which changes only inside the bank's transactions) only when `Bank::stamp` moved; a
# SipHash balance read on every step was 7 % of `paper_month`. A tripwire for a second read spelled
# `.bank().balance(` under crates/testnet/src, scanning each file up to its first column-0 #[cfg(test)].
tripwire 1 "crates/testnet/src must read a host balance in exactly one place, behind the bank's stamp" \
    '\.bank\(\)\.balance\(' crates/testnet/src

echo "==> one home for counterparty blocks"
# When a counterparty commits a block (its cadence, the 60-s keep-alive, the root comparison) and
# from which height each event is provable are decided in counterparty-sim's chain.rs alone:
# `CounterpartyChain::tick` and the stamps of `CounterpartyChain::drain_events`. The testnet and the
# mesh each kept a copy. A tripwire for the spellings those copies used, `produce_block(` outside
# crates/counterparty-sim/src and `ibc_mut().drain_events(` in the harnesses and the relayer,
# scanning each file up to its first column-0 #[cfg(test)].
EXCEPT='^crates/counterparty-sim/src/' tripwire 0 \
    "a counterparty block produced outside crates/counterparty-sim/src; call tick" \
    'produce_block\(' crates/*/src
tripwire 0 "counterparty events drained without their stamps; call CounterpartyChain::drain_events" \
    'ibc_mut\(\)\.drain_events\(' crates/mesh/src crates/testnet/src crates/relayer/src

echo "==> one home for conservation audits"
# ICS-20 voucher backing, NFT voucher backing and ICS-29 fee conservation are computed in
# chaos::invariants alone (`ics20_backing`, `nft_unbacked`, `fee_imbalance`), over the IBC handlers
# of a link; the invariant suite publishes the testnet's `supply.drift` gauge from its own pass and
# the mesh sums the same functions. The testnet and the mesh each kept a copy. A tripwire for the
# spellings those copies used, `voucher_backing(` outside crates/ibc-core and `.imbalance(` outside
# crates/apps, scanning each file up to its first column-0 #[cfg(test)].
EXCEPT='^crates/(ibc-core/|chaos/src/invariants\.rs:)' tripwire 0 \
    "ICS-20 voucher backing audited outside chaos::invariants; call invariants::ics20_backing" \
    '(^|[^a-z_])voucher_backing\(' crates tests examples
EXCEPT='^crates/(apps/|chaos/src/invariants\.rs:)' tripwire 0 \
    "fee conservation audited outside chaos::invariants; call invariants::fee_imbalance" \
    '\.imbalance\(' crates tests examples

echo "==> guest events are parsed in one place"
# A host event keeps the value it was encoded from (host-sim's event.rs `Event::payload_as`); the
# harness and the relayer ask it for a `GuestEvent` instead of each parsing the bytes, 8 % of
# `steady_day` when they did. A tripwire for the spelling the old code used, scanning each file up
# to its first column-0 #[cfg(test)].
tripwire 0 "a GuestEvent parsed from event bytes outside tests; ask Event::payload_as" \
    'from_slice::<GuestEvent>' crates/*/src

echo "==> per-slot metrics are pre-resolved"
# A writer that runs once per host slot holds a telemetry handle (`CounterHandle`, `GaugeHandle`,
# `HistogramHandle`) that remembers its registry slot after its first write; a named write searches
# the registry's name index, 38 % of `paper_month` when `HostChain::advance_slot` wrote by name. A
# tripwire for the spellings those writes used, scanning each file up to its first column-0
# #[cfg(test)].
tripwire 0 "crates/host-sim/src writes a metric by name outside tests; write through a handle" \
    'telemetry\.(counter_add|gauge_set|gauge_set_at|observe)\(' crates/host-sim/src

echo "==> the proof hand-off is not JSON"
# `ProofData::bytes` is a hand-off between two functions of one process, sealable_trie's
# `Proof::to_bytes`; only a proof inside a `GuestOp` is wire and therefore JSON (DESIGN decision 17).
tripwire 0 "crates/ibc-core/src/store.rs names serde_json outside tests; hand proofs off as bytes" \
    'serde_json' crates/ibc-core/src/store.rs

echo "==> one way into the journal"
# A record a caller emits is kept, in order: `event`, `span_start` and `span_end` all append through
# `Inner::journal_push` (telemetry's lib.rs), which numbers it; the sampler that routed each record
# to the journal, a pending buffer or the floor is gone. A tripwire for a second append spelled
# `journal.push(`, scanning each file up to its first column-0 #[cfg(test)].
tripwire 1 "crates/telemetry/src must append to the journal in exactly one place" \
    'journal\.push\(' crates/telemetry/src

echo "==> one application surface"
# Every app is an `ibc_core::router::Module`, and a `ModuleStack` is a Module around a Module; the
# second trait that restated its callbacks, and the adapters that translated one into the other, are
# gone. A tripwire for a second declaration spelled exactly as the Module's; it cannot catch a second
# trait whose callbacks are spelt differently.
SURFACE='fn on_recv_packet(&mut self, packet: &Packet) -> Acknowledgement;'
if [ "$(grep -rnF "$SURFACE" crates/*/src --include='*.rs' | wc -l)" -ne 1 ]; then
    grep -rnF "$SURFACE" crates/*/src --include='*.rs' >&2
    echo "crates/*/src must declare on_recv_packet in exactly one trait, ibc_core::router::Module" >&2
    exit 1
fi

echo "==> one testnet clock"
# The testnet steps every host slot (`Testnet::run_for`). The discrete-event loop that jumped idle
# stretches in one clock move went: its timeline was not the polled one, because a send committed at
# a stale counterparty-check instant waited for the 60-s keep-alive, and a guest block due at Δ
# waited for the 60-s audit heartbeat. `run_heavy_for` survives only as a doc-hidden alias of
# `run_for` for the frozen benchmark/ crate. A tripwire for the two spellings the old loop used,
# `fast_forward_to(` and `run_heavy_for`, scanning each file up to its first column-0 #[cfg(test)].
tripwire 0 "crates/*/src must not jump the host clock: step it with Testnet::run_for" \
    'fast_forward_to\(' crates/*/src
EXCEPT='^crates/testnet/src/harness\.rs:[0-9]*:    pub fn run_heavy_for\(' tripwire 0 \
    "run_heavy_for is only the alias benchmark/ calls: use Testnet::run_for" \
    'run_heavy_for' crates tests examples

echo "==> one import path per item"
# A type is named through the crate that owns it: the testnet re-exports only its own modules'
# items, no longer `chaos`, `monitor` or `telemetry` ones under a second path. A tripwire for a
# `pub use` in crates/testnet/src/lib.rs of anything but its own modules.
EXCEPT='pub use (config|experiments|harness|metrics)::' tripwire 0 \
    "crates/testnet/src/lib.rs re-exports another crate's item; import it from the crate that owns it" \
    '^pub use ' crates/testnet/src/lib.rs

echo "==> one home for the guest account's size"
# The bytes the guest holds are counted once, by `GuestContract::state_size` over the record layouts
# of DESIGN decision 21, and the guest refuses growth past host_sim::MAX_ACCOUNT_SIZE itself; the host
# no longer asks a program its size. A tripwire for a second `fn state_size` in crates/*/src and for
# any in crates/host-sim/src, scanning each file up to its first column-0 #[cfg(test)].
tripwire 1 "crates/*/src must size the guest account in one place, GuestContract::state_size" \
    'fn state_size\(' crates/*/src
tripwire 0 "crates/host-sim/src asks a program its size; the guest keeps its own limit" \
    'fn state_size\(' crates/host-sim/src

echo "==> one home for the time units"
# MINUTE_MS, HOUR_MS and DAY_MS are written once, in sim_crypto::time; everything else imports them
# (testnet's two keep their paths for the frozen benchmark/ as aliases, not numbers). A tripwire for
# a numeric definition anywhere else, scanning each file up to its first column-0 #[cfg(test)].
tripwire 3 "MINUTE_MS / HOUR_MS / DAY_MS must be defined once, in sim_crypto::time; import them" \
    'const (MINUTE|HOUR|DAY)_MS: u64 = [0-9]' crates tests examples

echo "==> cargo fmt --check"
cargo fmt --check

# Bench artifacts: each written fresh under $CI, all judged by one `bench gate` over gates.json
# (sim-clock ones against their tracked bytes, every one against its rows).
CI=target/ci
rm -rf "$CI" && mkdir -p "$CI"
bench() { echo "==> $1"; cargo run -q --release --offline -p bench --bin "$1" -- "${@:2}"; }

echo "==> trace explorer (telemetry smoke test)"
cargo run -q --release --offline --example trace_explorer > /dev/null

# The paper's figures and tables: one 28-day simulation, every artifact and its telemetry run report
# built from it in one process.
bench paper --days 28 --quiet --run_report "$CI/BENCH_run_report.json" \
    --fig2_send_latency "$CI/BENCH_fig2_send_latency.json" \
    --fig3_send_cost "$CI/BENCH_fig3_send_cost.json" \
    --fig4_lc_update_latency "$CI/BENCH_fig4_lc_update_latency.json" \
    --fig5_lc_update_cost "$CI/BENCH_fig5_lc_update_cost.json" \
    --fig6_block_interval "$CI/BENCH_fig6_block_interval.json" \
    --table1_validators "$CI/BENCH_table1_validators.json" \
    --recv_packet_cost "$CI/BENCH_recv_packet_cost.json" \
    --storage_costs "$CI/BENCH_storage_costs.json"

bench mesh_scaling --chains 3 --hops 2 --days 1 --quiet \
    --json "$CI/BENCH_mesh_scaling.json" --run-report "$CI/BENCH_mesh_run_report.json"
bench apps_mix --users 96 --hours 2 --seed 2026 --quiet --json "$CI/BENCH_apps.json"
bench monitor_eval --quiet --json "$CI/BENCH_monitor_eval.json"
bench latency_attribution --users 400 --hours 2 --seed 2026 --quiet \
    --json "$CI/BENCH_latency_attribution.json"
bench relay_capacity --seed 2026 --quiet --json "$CI/BENCH_relay_capacity.json"
bench storm --users 1000 --gap-ms 30000 --hours 2 --seed 2026 --reps 9 --quiet \
    --profile "$CI/BENCH_profile.json" --profile_summary "$CI/BENCH_profile_summary.json" \
    --overhead "$CI/BENCH_overhead.json"
bench gate gates.json

# Wall-clock artifacts are tracked for their history, not pinned: refreshed once the gate has passed.
cp "$CI/BENCH_profile_summary.json" "$CI/BENCH_profile.json" "$CI/BENCH_overhead.json" .
echo "CI green."
