//! End-to-end chaos drills: run the full testnet harness under scheduled
//! faults and check both the resilience story (the deployment recovers)
//! and the audit story (real safety breaches are detected and attributed).

use ibc_core::channel::Timeout;
use testnet::{
    report_of, ChaosPlan, Fault, InvariantKind, Testnet, TestnetConfig, ValidatorProfile, CP_DENOM,
    CP_USER, DAY_MS, GUEST_DENOM, GUEST_USER,
};

const MINUTE_MS: u64 = 60 * 1_000;

/// A small config whose first validator holds a dominant stake, so its
/// crash stalls finality — the shape of the paper's §V-C incident.
fn dominant_validator_config(seed: u64) -> TestnetConfig {
    let mut config = TestnetConfig::small(seed);
    config.validators = vec![
        ValidatorProfile::reliable(1_000_000),
        ValidatorProfile::reliable(100),
        ValidatorProfile::reliable(100),
        ValidatorProfile::reliable(100),
    ];
    config
}

/// The differential check on the ICS-20 banks' per-denom running totals:
/// every scenario ends by recounting both banks account by account. A
/// counterfeit mint passes too — it breaks backing, not book-keeping.
fn assert_banks_recount(net: &Testnet) {
    let port = &net.endpoints().port;
    let contract = net.contract.borrow();
    let banks = [
        ("guest", contract.ibc().module(port).and_then(|m| m.ics20())),
        ("counterparty", net.cp.ibc().module(port).and_then(|m| m.ics20())),
    ];
    for (side, bank) in banks {
        let bank = bank.expect("ICS-20 ledger");
        for denom in bank.denoms() {
            let recount: u128 = bank.holders(&denom).map(|(_, amount)| amount).sum();
            assert_eq!(recount, bank.total_supply(&denom), "{denom} on the {side}");
        }
    }
}

/// The whole chaos machinery must be inert until a fault window opens: a
/// run under a plan whose events all lie beyond the horizon is
/// byte-identical to a run under the empty plan.
#[test]
fn fault_free_plan_reproduces_baseline() {
    let duration = 6 * MINUTE_MS;

    let baseline = {
        let mut net = Testnet::build(TestnetConfig::small(11));
        net.run_for(duration);
        assert_banks_recount(&net);
        serde_json::to_string(&report_of(&net, duration)).unwrap()
    };

    let armed_but_idle = {
        let mut config = TestnetConfig::small(11);
        config.chaos = ChaosPlan::new(0xDEAD)
            .with(10 * DAY_MS, 11 * DAY_MS, Fault::ValidatorCrash { validator: 0 })
            .with(10 * DAY_MS, 11 * DAY_MS, Fault::ChunkDrop { probability: 0.9 })
            .with(10 * DAY_MS, 11 * DAY_MS, Fault::CongestionStorm { load: 0.95 })
            .with(10 * DAY_MS, 11 * DAY_MS, Fault::RelayerHalt);
        let mut net = Testnet::build(config);
        net.run_for(duration);
        assert!(net.invariant_violations().is_empty());
        assert_banks_recount(&net);
        serde_json::to_string(&report_of(&net, duration)).unwrap()
    };

    assert_eq!(baseline, armed_but_idle, "out-of-window faults must not perturb the run");
}

/// Crashing the dominant validator stalls finality for the length of the
/// window; transfers sent during the stall complete after recovery, and no
/// safety invariant breaks — the §V-C outage as a repeatable drill.
#[test]
fn validator_crash_stalls_and_recovers() {
    let window = (2 * MINUTE_MS, 7 * MINUTE_MS);
    let mut config = dominant_validator_config(21);
    config.chaos =
        ChaosPlan::new(21).with(window.0, window.1, Fault::ValidatorCrash { validator: 0 });
    let mut net = Testnet::build(config);
    net.run_for(13 * MINUTE_MS);

    let report = report_of(&net, 13 * MINUTE_MS);
    let worst = report.fig2_send_latency_s.iter().cloned().fold(0.0, f64::max);
    assert!(
        worst > 120.0,
        "a transfer sent into the stall waits for the recovery (worst {worst}s)"
    );
    assert!(report.completed_sends > 0, "the backlog finalises after the outage");
    // The block at the head when the run ends may have been cut in its last
    // slot; give its signatures a few seconds and it must finalise.
    let head = net.contract.borrow().head_height();
    net.run_for(20_000);
    assert!(net.contract.borrow().is_finalised(head), "liveness restored");
    assert!(net.invariant_violations().is_empty(), "an outage is not a safety breach");
    assert_banks_recount(&net);
}

/// A latency spike on the quorum-carrying validator (plus clock skew on a
/// minor one) delays finalisation during the window but nothing breaks.
#[test]
fn latency_spike_delays_signatures() {
    let window = (MINUTE_MS, 5 * MINUTE_MS);
    let mut config = dominant_validator_config(81);
    config.chaos = ChaosPlan::new(81)
        .with(window.0, window.1, Fault::ValidatorLatencySpike { validator: 0, factor: 6.0 })
        .with(window.0, window.1, Fault::ValidatorClockSkew { validator: 2, offset_ms: 20_000 });
    let mut net = Testnet::build(config);
    net.run_for(10 * MINUTE_MS);

    let latency_of = |in_window: bool| -> Vec<f64> {
        let mut v: Vec<f64> = net
            .sign_records
            .iter()
            .filter(|r| r.validator == 0)
            .filter(|r| (r.block_ms >= window.0 && r.block_ms < window.1) == in_window)
            .map(|r| r.latency_s())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let spiked = latency_of(true);
    let normal = latency_of(false);
    assert!(!spiked.is_empty() && !normal.is_empty());
    let median = |v: &[f64]| v[v.len() / 2];
    assert!(
        median(&spiked) > 2.0 * median(&normal),
        "spiked median {} vs normal {}",
        median(&spiked),
        median(&normal)
    );
    assert!(net.invariant_violations().is_empty());
    assert_banks_recount(&net);
}

/// A congestion storm with an inclusion-failure burst: the deployment
/// slows down but loses nothing.
#[test]
fn congestion_storm_degrades_but_preserves_safety() {
    let mut config = TestnetConfig::small(31);
    config.chaos = ChaosPlan::new(31)
        .with(MINUTE_MS, 4 * MINUTE_MS, Fault::CongestionStorm { load: 0.92 })
        .with(MINUTE_MS, 4 * MINUTE_MS, Fault::InclusionFailureBurst { probability: 0.25 });
    let mut net = Testnet::build(config);
    net.run_for(9 * MINUTE_MS);

    let report = report_of(&net, 9 * MINUTE_MS);
    assert!(report.completed_sends > 0, "transfers still complete");
    // The very head block may be seconds old; the one before it has had
    // time to gather a quorum.
    let contract = net.contract.borrow();
    assert!(contract.is_finalised(contract.head_height().saturating_sub(1)));
    drop(contract);
    assert!(net.invariant_violations().is_empty());
    assert_banks_recount(&net);
}

/// With the relayer down past a packet's timeout, the commitment is
/// orphaned — and the audit says so, naming the halt as the likely cause.
#[test]
fn relayer_halt_orphans_a_timed_out_packet() {
    let mut config = TestnetConfig::small(41);
    // No background traffic; the one injected packet tells the story.
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    config.invariants.orphan_slack_ms = 30_000;
    config.chaos = ChaosPlan::new(41).with(MINUTE_MS, 60 * MINUTE_MS, Fault::RelayerHalt);
    let mut net = Testnet::build(config);

    net.run_for(70_000); // into the halt window
    net.inject_outbound_transfer(500, 2 * MINUTE_MS);
    net.run_for(6 * MINUTE_MS);

    let violation = net
        .invariant_violations()
        .iter()
        .find(|v| v.invariant == InvariantKind::NoOrphanedPacket)
        .expect("the expired, undelivered packet is flagged");
    assert!(
        violation.faults.iter().any(|f| f == "relayer-halt"),
        "the violation names the halt: {:?}",
        violation.faults
    );
    assert_banks_recount(&net);

    // Control: same timeline with the relayer running resolves the packet
    // (delivered or properly timed out) — no orphan.
    let mut config = TestnetConfig::small(41);
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    config.invariants.orphan_slack_ms = 30_000;
    let mut net = Testnet::build(config);
    net.run_for(70_000);
    net.inject_outbound_transfer(500, 2 * MINUTE_MS);
    net.run_for(6 * MINUTE_MS);
    assert!(net.invariant_violations().is_empty(), "{:?}", net.invariant_violations());
    assert_banks_recount(&net);
}

/// A relayer that stays down longer than the host's block window (512
/// slots, a few minutes) must still find what was sent meanwhile: the host
/// keeps every block a relayer has yet to scan, so the send event is there
/// when it comes back, and the packet is delivered late instead of never.
#[test]
fn long_relayer_halt_delays_but_does_not_lose_a_packet() {
    let halt_until = 31 * MINUTE_MS;
    let mut config = TestnetConfig::small(41);
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    config.chaos = ChaosPlan::new(41).with(MINUTE_MS, halt_until, Fault::RelayerHalt);
    let mut net = Testnet::build(config);

    net.run_for(70_000); // into the halt window
    net.inject_outbound_transfer(500, net.host.now_ms() + DAY_MS);
    net.run_for(halt_until + 15 * MINUTE_MS - 70_000);

    let endpoints = net.endpoints();
    let voucher = format!("transfer/{}/{GUEST_DENOM}", endpoints.cp_channel);
    let bank = net.cp.ibc().module(&endpoints.port).and_then(|m| m.ics20()).expect("ICS-20 ledger");
    assert_eq!(bank.balance(CP_USER, &voucher), 500, "delivered once the relayer recovered");
    assert_eq!(net.relayer.backlog(), 0);
    assert!(net.invariant_violations().is_empty(), "{:?}", net.invariant_violations());
    assert_banks_recount(&net);
}

/// Dropped chunk submissions: the relayer re-submits after its timeout and
/// every job still completes. A loss costs no retry, not even when the
/// chunks submitted behind it fail as non-sequential writes.
#[test]
fn chunk_drops_are_resubmitted() {
    let mut config = TestnetConfig::small(51);
    config.chaos =
        ChaosPlan::new(51).with(0, 10 * MINUTE_MS, Fault::ChunkDrop { probability: 0.25 });
    let mut net = Testnet::build(config);
    // A minute past the window, every loss's confirmation is overdue
    // (`RESUBMIT_AFTER_SLOTS`, 64 slots), whichever job it belonged to.
    net.run_for(11 * MINUTE_MS);

    assert!(net.relayer.lost_submissions() > 0, "the fault actually fired");
    assert!(
        net.relayer.resubmissions() >= net.relayer.lost_submissions(),
        "losses {} vs retries {}",
        net.relayer.lost_submissions(),
        net.relayer.resubmissions()
    );
    assert!(!net.relayer.records().is_empty(), "jobs still complete");
    assert_eq!(net.relayer.failed_jobs(), 0, "a lost chunk never abandons its job");
    let report = report_of(&net, 11 * MINUTE_MS);
    assert!(report.completed_sends > 0);
    assert!(net.invariant_violations().is_empty());
    assert_banks_recount(&net);
}

/// Duplicated and reordered chunk submissions: the guest contract must
/// tolerate replays and out-of-order writes without minting value.
#[test]
fn chunk_duplicates_and_reorders_keep_conservation() {
    let mut config = TestnetConfig::small(61);
    config.chaos = ChaosPlan::new(61)
        .with(0, 8 * MINUTE_MS, Fault::ChunkDuplicate { probability: 0.25 })
        .with(0, 8 * MINUTE_MS, Fault::ChunkReorder { probability: 0.25 });
    let mut net = Testnet::build(config);
    net.run_for(8 * MINUTE_MS);

    let report = report_of(&net, 8 * MINUTE_MS);
    assert!(report.completed_sends > 0, "progress despite replays");
    assert!(
        !net.invariant_violations().iter().any(|v| v.invariant == InvariantKind::Ics20Conservation),
        "replayed submissions never mint value: {:?}",
        net.invariant_violations()
    );
    assert_banks_recount(&net);
}

/// A reordered chunk fails the same out-of-order write until its job is
/// abandoned. The packet the job carried must be relayed again, not lost
/// with it: with a transfer each way every minute of a 30-minute reorder
/// window and an hour without faults after it, every packet sent on either
/// side ends acknowledged or timed out, in both disciplines.
#[test]
fn abandoned_jobs_relay_their_packet_again() {
    for pipelined in [false, true] {
        let mut config = TestnetConfig::small(61);
        config.relayer.pipelined = pipelined;
        config.workload.outbound_mean_gap_ms = u64::MAX / 4;
        config.workload.inbound_mean_gap_ms = u64::MAX / 4;
        config.chaos =
            ChaosPlan::new(61).with(0, 30 * MINUTE_MS, Fault::ChunkReorder { probability: 0.25 });
        let mut net = Testnet::build(config);
        let (port, cp_channel) = (net.endpoints().port.clone(), net.endpoints().cp_channel.clone());
        for _ in 0..30 {
            let timeout_at = net.host.now_ms() + DAY_MS;
            net.inject_outbound_transfer(500, timeout_at);
            ibc_core::ics20::send_transfer(
                net.cp.ibc_mut(),
                &port,
                &cp_channel,
                CP_DENOM,
                300,
                CP_USER,
                GUEST_USER,
                "",
                Timeout::at_time(timeout_at),
            )
            .expect("the counterparty user is funded");
            net.run_for(MINUTE_MS);
        }
        net.run_for(60 * MINUTE_MS);

        assert!(net.relayer.failed_jobs() > 0, "pipelined {pipelined}: no job was abandoned");
        let counter = |name: String| net.telemetry().counter(&name);
        for side in ["guest", "cp"] {
            let sent = counter(format!("{side}.packets.sent"));
            let settled = counter(format!("{side}.packets.acked"))
                + counter(format!("{side}.packets.timed_out"));
            assert_eq!(sent, 30, "pipelined {pipelined}: {side} sent");
            assert_eq!(settled, sent, "pipelined {pipelined}: {side} packets stranded");
        }
        assert_eq!(net.relayer.backlog(), 0);
        assert!(net.invariant_violations().iter().all(|v| !v.faults.is_empty()));
        assert_banks_recount(&net);
    }
}

/// A client update abandoned with packet jobs riding behind it. Reordered
/// chunks fail updates past their retries while dropped ones hold them in
/// flight; the jobs proven under the header an abandoned update was
/// installing go back to the intent queue, uncounted as failures, and are
/// proven again. Under steady traffic, every packet sent in the fault
/// window ends acknowledged or refunded, the delivery ledger explains every
/// arrival, and ICS-20 value is conserved.
#[test]
fn jobs_riding_an_abandoned_update_return_to_the_queue() {
    let fault_end = 20 * MINUTE_MS;
    let mut config = TestnetConfig::small(67);
    config.traffic = Some(workload::TrafficConfig::steady(200, 10_000));
    config.chaos = ChaosPlan::new(67)
        .with(0, fault_end, Fault::ChunkReorder { probability: 0.7 })
        .with(0, fault_end, Fault::ChunkDrop { probability: 0.05 });
    let mut net = Testnet::build(config);
    net.run_for(3 * fault_end);

    let counter = |name| net.telemetry().counter(name);
    assert!(counter("relayer.jobs.returned") > 0, "no job rode an abandoned update");
    assert!(net.relayer.failed_jobs() > 0, "no update was abandoned");
    let report = net.run_report("riders");
    let stranded = report.packets.iter().filter(|p| p.first_ms < fault_end && !p.completed);
    assert_eq!(stranded.count(), 0, "every packet of the fault window settled");
    let ledger = net.delivery_accounting().expect("traffic mode keeps the ledger");
    assert_eq!(ledger.unexplained(), 0, "{ledger:?}");
    assert!(
        !net.invariant_violations().iter().any(|v| v.invariant == InvariantKind::Ics20Conservation),
        "{:?}",
        net.invariant_violations()
    );
    assert_banks_recount(&net);
}

/// A seeded conservation violation: counterfeit vouchers minted on the
/// counterparty are caught by the ICS-20 audit and attributed to the mint.
#[test]
fn counterfeit_mint_is_detected() {
    let mut config = TestnetConfig::small(71);
    config.chaos = ChaosPlan::new(71).at(
        2 * MINUTE_MS,
        Fault::CounterfeitMint {
            account: "mallory".into(),
            denom: "transfer/channel-0/wsol".into(),
            amount: 1_000_000_000,
        },
    );
    let mut net = Testnet::build(config);
    // The forged denom must be the real voucher denom of guest-native
    // tokens on the counterparty, else the audit would not be watching it.
    assert_eq!(net.endpoints().port.to_string(), "transfer");
    assert_eq!(net.endpoints().cp_channel.to_string(), "channel-0");
    net.run_for(6 * MINUTE_MS);

    let violation = net
        .invariant_violations()
        .iter()
        .find(|v| v.invariant == InvariantKind::Ics20Conservation)
        .expect("the counterfeit mint breaks conservation");
    assert!(
        violation.faults.iter().any(|f| f.starts_with("counterfeit-mint")),
        "the violation names the mint: {:?}",
        violation.faults
    );
    assert!(violation.details.contains("exceed"), "{}", violation.details);

    // The audit reads the bank's running totals, not a scan; it must still
    // see the mint at the first audit after it. The instant is that of the
    // pipelined `small()` timeline (the sequential one read 127 596).
    assert_eq!(violation.at_ms, 129_160, "detection instant: the first audit after the mint");
    let drift = net.telemetry().gauge_handle("supply.drift");
    let drift_at = |ms| drift.value_at(ms);
    assert_eq!(drift_at(violation.at_ms - 1), Some(0.0));
    assert_eq!(drift_at(violation.at_ms), Some(1_000_000_000.0));
    assert_banks_recount(&net);
}

/// A halted counterparty stops advancing; the guest side keeps finalising
/// and nothing unsafe happens.
#[test]
fn counterparty_halt_is_survivable() {
    let halted_height = {
        let mut config = TestnetConfig::small(91);
        config.chaos = ChaosPlan::new(91).with(MINUTE_MS, 4 * MINUTE_MS, Fault::CounterpartyHalt);
        let mut net = Testnet::build(config);
        net.run_for(6 * MINUTE_MS);
        let contract = net.contract.borrow();
        // The head block may have been produced moments before the run
        // ended with signatures still in flight; liveness means
        // finalisation tracks the head within normal signing lag.
        let head = contract.head_height();
        let finalised = (0..=head).rev().find(|h| contract.is_finalised(*h)).unwrap_or(0);
        assert!(head - finalised <= 2, "guest liveness unaffected (head {head}, fin {finalised})");
        drop(contract);
        assert!(net.invariant_violations().is_empty());
        assert_banks_recount(&net);
        net.cp.height()
    };
    let baseline_height = {
        let mut net = Testnet::build(TestnetConfig::small(91));
        net.run_for(6 * MINUTE_MS);
        assert_banks_recount(&net);
        net.cp.height()
    };
    assert!(
        halted_height < baseline_height,
        "the halt cost counterparty blocks ({halted_height} vs {baseline_height})"
    );
}

/// Slashing under chaos: a rogue validator is reported and slashed while a
/// fault window is open, and the stake-accounting invariant still balances
/// (burned stake is accounted, not lost).
#[test]
fn slashing_preserves_stake_accounting() {
    let mut config = TestnetConfig::small(44);
    config.guest.slashing_enabled = true;
    config.rogue = Some(testnet::RogueConfig { validator: 3, equivocate_probability: 0.5 });
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    // Mild background chaos so the audit runs in anger, not in a vacuum.
    config.chaos =
        ChaosPlan::new(44).with(MINUTE_MS, 3 * MINUTE_MS, Fault::CongestionStorm { load: 0.7 });
    let mut net = Testnet::build(config);
    net.run_for(10 * MINUTE_MS);

    assert!(net.fisherman_reports >= 1, "the fisherman reported the rogue");
    assert!(net.contract.borrow().staking().total_stake() < 400, "stake was actually burned");
    assert!(
        !net.invariant_violations().iter().any(|v| v.invariant == InvariantKind::StakeConservation),
        "burned stake is accounted for: {:?}",
        net.invariant_violations()
    );
    assert_banks_recount(&net);
}

/// A violation's forensic links must name the packets that were in flight
/// when it fired: halt the relayer so outbound transfers cannot resolve,
/// then mint counterfeit vouchers — the resulting conservation breach has
/// to carry their trace ids, and the run report must agree.
#[test]
fn violations_link_in_flight_packet_traces() {
    let mut config = TestnetConfig::small(73);
    config.workload.outbound_mean_gap_ms = 30_000;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    config.chaos = ChaosPlan::new(73).with(MINUTE_MS, 8 * MINUTE_MS, Fault::RelayerHalt).at(
        3 * MINUTE_MS,
        Fault::CounterfeitMint {
            account: "mallory".into(),
            denom: "transfer/channel-0/wsol".into(),
            amount: 1_000_000_000,
        },
    );
    let mut net = Testnet::build(config);
    net.run_for(6 * MINUTE_MS);

    let violation = net
        .invariant_violations()
        .iter()
        .find(|v| v.invariant == InvariantKind::Ics20Conservation)
        .expect("the counterfeit mint breaks conservation")
        .clone();
    assert!(
        !violation.linked_traces.is_empty(),
        "with the relayer halted, transfers were in flight at detection time"
    );

    // The run report mirrors the links and resolves them to real packets.
    let report = net.run_report("violation-links");
    let reported = report
        .violations
        .iter()
        .find(|v| v.invariant == "ics20-conservation")
        .expect("violation reaches the run report");
    assert_eq!(reported.linked_traces, violation.linked_traces);
    for trace in &reported.linked_traces {
        let packet = report
            .packets
            .iter()
            .find(|p| p.trace == *trace)
            .expect("every linked trace resolves to a packet");
        assert_eq!(packet.origin, "guest", "tracked in-flight packets are guest outbound");
        assert!(!packet.completed, "an in-flight packet has no ack yet");
    }
    assert_banks_recount(&net);
}

/// A finality stall must be legible in the telemetry run report: a packet
/// sent into a validator-crash window carries a `cp_client_update` span
/// stretching across the outage — the miniature of ISSUE 3's 13-day
/// `paper_outage_plan` acceptance check.
#[test]
fn outage_is_visible_as_lc_update_span() {
    let window = (2 * MINUTE_MS, 7 * MINUTE_MS);
    let mut config = dominant_validator_config(21);
    config.chaos =
        ChaosPlan::new(21).with(window.0, window.1, Fault::ValidatorCrash { validator: 0 });
    let mut net = Testnet::build(config);
    net.run_for(13 * MINUTE_MS);

    let report = net.run_report("outage-span");
    let stall_span = report
        .packets
        .iter()
        .flat_map(|p| &p.spans)
        .filter(|s| s.name == "relayer.job.cp_client_update")
        .filter_map(|s| s.end_ms.map(|end| (s.start_ms, end)))
        .find(|(start, end)| {
            // Stretches across most of the outage: opens inside the window
            // (when the first stranded packet starts waiting) and closes
            // only once a post-recovery header lands.
            *start < window.1 && *end >= window.1 && end - start > (window.1 - window.0) / 2
        });
    let (start, end) = stall_span.expect("the stall shows up as a long LC-update wait span");
    assert!(
        end - start < 13 * MINUTE_MS,
        "the span closes after recovery instead of hanging forever"
    );
    assert_banks_recount(&net);
}
