//! Differential oracle: the pipelined relayer ends where the sequential
//! one does. The same burst of transfers in both directions, relayed once
//! with one transaction unconfirmed and once with a host block's worth,
//! must leave the same packets acknowledged with the same acknowledgements
//! and the same ICS-20 ledgers on both chains — only sooner. Beside it, the
//! shape of one pipelined job and the pace of pipelined client updates.

use std::collections::BTreeMap;

use ibc_core::channel::Timeout;
use ibc_core::path;
use relayer::JobKind;
use testnet::{Testnet, TestnetConfig, CP_DENOM, CP_USER, DAY_MS, GUEST_USER, HOUR_MS};
use workload::TrafficConfig;

const MINUTE_MS: u64 = 60_000;
const BURST: u64 = 40;

/// `(origin, channel, sequence)` of every acknowledged packet, with the
/// acknowledgement commitment its receiver stored.
type Acks = BTreeMap<(String, String, u64), Vec<u8>>;

/// Every holder of every denomination on one ICS-20 ledger, with totals.
type Ledger = BTreeMap<String, (u128, Vec<(String, u128)>)>;

/// A quiet `small(seed)` deployment: no Poisson traffic, so the burst is
/// the only work.
fn quiet(seed: u64, pipelined: bool) -> Testnet {
    let mut config = TestnetConfig::small(seed);
    config.relayer.pipelined = pipelined;
    config.workload.outbound_mean_gap_ms = u64::MAX / 4;
    config.workload.inbound_mean_gap_ms = u64::MAX / 4;
    Testnet::build(config)
}

/// Sends one transfer of `amount` from the counterparty to the guest.
fn send_inbound(net: &mut Testnet, amount: u128, timeout_at: u64) {
    let (port, cp_channel) = (net.endpoints().port.clone(), net.endpoints().cp_channel.clone());
    ibc_core::ics20::send_transfer(
        net.cp.ibc_mut(),
        &port,
        &cp_channel,
        CP_DENOM,
        amount,
        CP_USER,
        GUEST_USER,
        "",
        Timeout::at_time(timeout_at),
    )
    .expect("the counterparty user is funded");
}

/// Sends `BURST` transfers each way at t = 0 and runs until every one of
/// them is acknowledged and the relayer is idle. Returns the instant of
/// the last acknowledgement.
fn burst_and_drain(net: &mut Testnet) -> u64 {
    let timeout_at = net.host.now_ms() + DAY_MS;
    for i in 0..BURST {
        net.inject_outbound_transfer(100 + u128::from(i), timeout_at);
        send_inbound(net, 200 + u128::from(i), timeout_at);
    }
    let acked = |net: &Testnet| {
        net.telemetry().counter("guest.packets.acked") + net.telemetry().counter("cp.packets.acked")
    };
    let mut waited = 0;
    while acked(net) < 2 * BURST || net.relayer.backlog() > 0 || net.relayer.job_in_flight() {
        assert!(waited < 2 * HOUR_MS, "the burst did not drain: {} acked", acked(net));
        net.run_heavy_for(MINUTE_MS);
        waited += MINUTE_MS;
    }
    let report = net.run_report("pipelined_relay");
    let ack_times =
        report.packets.iter().flat_map(|p| &p.events).filter(|e| e.name == "packet.ack");
    ack_times.map(|e| e.at_ms).max().expect("acknowledged packets")
}

fn acks(net: &Testnet) -> Acks {
    let e = net.endpoints();
    let contract = net.contract.borrow();
    let mut acks = Acks::new();
    for packet in net.run_report("pipelined_relay").packets {
        if !packet.events.iter().any(|e| e.name == "packet.ack") {
            continue;
        }
        // The receiver keeps the acknowledgement it wrote.
        let stored = if packet.origin == "guest" {
            let key = path::packet_ack(&e.port, &e.cp_channel, packet.sequence);
            net.cp.ibc().store().get(&key)
        } else {
            let key = path::packet_ack(&e.port, &e.guest_channel, packet.sequence);
            contract.ibc().store().get(&key)
        };
        let ack = stored.expect("readable").expect("the receiver wrote an acknowledgement");
        acks.insert((packet.origin, packet.channel, packet.sequence), ack);
    }
    acks
}

fn ledgers(net: &Testnet) -> [Ledger; 2] {
    let port = &net.endpoints().port;
    let contract = net.contract.borrow();
    let banks = [
        contract.ibc().module(port).and_then(|m| m.ics20()),
        net.cp.ibc().module(port).and_then(|m| m.ics20()),
    ];
    banks.map(|bank| {
        let bank = bank.expect("ICS-20 ledger");
        bank.denoms()
            .into_iter()
            .map(|denom| {
                let mut holders: Vec<_> =
                    bank.holders(&denom).map(|(who, amount)| (who.to_string(), amount)).collect();
                holders.sort();
                let total = bank.total_supply(&denom);
                (denom, (total, holders))
            })
            .collect()
    })
}

#[test]
fn pipelined_relay_ends_where_sequential_does_only_sooner() {
    for seed in [3, 17, 2026] {
        let mut sequential = quiet(seed, false);
        let mut pipelined = quiet(seed, true);
        let sequential_last = burst_and_drain(&mut sequential);
        let pipelined_last = burst_and_drain(&mut pipelined);

        let acked = acks(&sequential);
        assert_eq!(acked.len() as u64, 2 * BURST, "seed {seed}: every packet acknowledged");
        assert_eq!(acked, acks(&pipelined), "seed {seed}: same packets, same acks");
        assert_eq!(ledgers(&sequential), ledgers(&pipelined), "seed {seed}: same ledgers");
        assert_eq!(sequential.relayer.failed_jobs(), 0, "seed {seed}");
        assert_eq!(pipelined.relayer.failed_jobs(), 0, "seed {seed}");
        assert!(
            pipelined_last < sequential_last,
            "seed {seed}: pipelined last ack at {pipelined_last} ms, sequential {sequential_last} ms"
        );
        assert_eq!(sequential.relayer.peak_jobs_in_flight(), 1, "seed {seed}");
        assert!(pipelined.relayer.peak_jobs_in_flight() > 1, "seed {seed}");
    }
}

/// The window never outruns the guest's §VI-C cap: at 30 client updates
/// an hour, a pipelined relayer still drains an airdrop storm, waiting out
/// the cap instead of paying for updates the contract would refuse.
#[test]
fn a_tight_update_cap_paces_the_pipelined_relayer() {
    let mut config = TestnetConfig::small(2026);
    config.guest.max_client_updates_per_hour = 30;
    config.traffic = Some(TrafficConfig::airdrop_storm(1_000, 30_000));
    let mut net = Testnet::build(config);
    net.run_heavy_for(5 * HOUR_MS / 2);

    let counter = |name| net.telemetry().counter(name);
    assert_eq!(counter("relayer.jobs.abandoned"), 0);
    assert_eq!(counter("guest.op.rejected.update_client"), 0, "no update was rate limited");
    let updates = net.relayer.records().iter().filter(|r| r.kind == JobKind::ClientUpdate);
    let updates: Vec<u64> = updates.map(|r| r.scheduled_ms).collect();
    for (i, start) in updates.iter().enumerate() {
        let in_hour = updates[i..].iter().take_while(|t| **t < start + HOUR_MS).count();
        assert!(in_hour <= 30, "{in_hour} updates started within the hour from {start} ms");
    }
    let report = net.run_report("paced");
    // The surge is 60–90 min in; a cap this tight can hold a late packet
    // for up to an hour, so everything sent by its end has settled.
    let surge_end = 90 * MINUTE_MS;
    let stranded = report.packets.iter().filter(|p| p.first_ms < surge_end && !p.completed);
    assert_eq!(stranded.count(), 0, "the storm drained");
    assert!(report.packets.len() > 2_000, "{} packets", report.packets.len());
}

/// With nothing else in flight, a pipelined receive is one block: its plan
/// goes out in one tick and the host runs it in submission order in the
/// next slot. The sequential relayer awaits each confirmation, one slot per
/// transaction, for the same plan.
#[test]
fn a_lone_pipelined_receive_lands_in_one_block() {
    let lone_receive = |pipelined| {
        let mut net = quiet(2026, pipelined);
        let timeout_at = net.host.now_ms() + DAY_MS;
        send_inbound(&mut net, 500, timeout_at);
        net.run_heavy_for(10 * MINUTE_MS);
        assert_eq!(net.relayer.failed_jobs(), 0, "pipelined {pipelined}");
        let mut receives = net.relayer.records().iter().filter(|r| r.kind == JobKind::RecvPacket);
        let record = *receives.next().expect("the transfer was received");
        assert!(receives.next().is_none(), "pipelined {pipelined}: one receive");
        record
    };
    let sequential = lone_receive(false);
    let pipelined = lone_receive(true);
    assert_eq!(pipelined.first_tx_ms, pipelined.last_tx_ms, "one block: {pipelined:?}");
    assert_eq!(pipelined.tx_count, sequential.tx_count, "the same plan");
    let slot_ms = TestnetConfig::small(2026).host_profile.slot_millis;
    let slots = sequential.tx_count as u64 - 1;
    assert!(slots > 0 && sequential.span_ms() >= slots * slot_ms, "{sequential:?}");
}

/// A receive proven under the header a client update is installing rides
/// behind that update: submitted after it in the same tick, it runs after
/// it in the same host block, so its first transaction lands in the block
/// of the update's last. The sequential relayer still awaits the update's
/// confirmation before it proves the receive.
#[test]
fn a_receive_rides_behind_its_client_update() {
    let receive_and_update = |pipelined| {
        let mut net = quiet(2026, pipelined);
        let timeout_at = net.host.now_ms() + DAY_MS;
        send_inbound(&mut net, 500, timeout_at);
        net.run_heavy_for(10 * MINUTE_MS);
        assert_eq!(net.relayer.failed_jobs(), 0, "pipelined {pipelined}");
        let records = net.relayer.records();
        let receive = *records.iter().find(|r| r.kind == JobKind::RecvPacket).expect("received");
        let update = records
            .iter()
            .rfind(|r| r.kind == JobKind::ClientUpdate && r.scheduled_ms <= receive.scheduled_ms)
            .copied()
            .expect("the update that made the receive provable");
        (receive, update)
    };
    let (receive, update) = receive_and_update(true);
    assert_eq!(receive.scheduled_ms, update.scheduled_ms, "started in the update's tick");
    assert_eq!(receive.first_tx_ms, update.last_tx_ms, "{update:?} then {receive:?}");
    let (receive, update) = receive_and_update(false);
    assert!(receive.first_tx_ms > update.last_tx_ms, "{update:?} then {receive:?}");
}

/// Every pipelined client update keeps the guest's §VI-C pace, spreading
/// what is left of the trailing hour's budget. Twenty minutes of one
/// transfer a minute spend a few dozen of the hour's 600 updates, so the
/// burst of a transfer every 2 s that follows is served by updates closer
/// together than an hour over the cap — and the cap never refuses one.
#[test]
fn every_pipelined_client_update_keeps_the_cap_pace() {
    let mut net = quiet(2026, true);
    let pace_ms = HOUR_MS / u64::from(net.config().guest.max_client_updates_per_hour);
    for (count, gap_ms) in [(20u64, MINUTE_MS), (60, 2_000)] {
        for i in 0..count {
            let timeout_at = net.host.now_ms() + DAY_MS;
            send_inbound(&mut net, 100 + u128::from(i), timeout_at);
            net.run_heavy_for(gap_ms);
        }
    }
    net.run_heavy_for(MINUTE_MS);

    assert_eq!(net.telemetry().counter("cp.packets.sent"), 80);
    assert_eq!(net.relayer.backlog(), 0, "every transfer relayed");
    assert_eq!(net.relayer.failed_jobs(), 0);
    assert_eq!(net.telemetry().counter("guest.op.rejected.update_client"), 0, "none refused");
    let updates = net.relayer.records().iter().filter(|r| r.kind == JobKind::ClientUpdate);
    let starts: Vec<u64> = updates.map(|r| r.scheduled_ms).collect();
    assert!(starts.len() > 30, "{} updates", starts.len());
    let closest = starts.windows(2).map(|pair| pair[1] - pair[0]).min().expect("two updates");
    assert!(closest < pace_ms, "closest updates {closest} ms apart, pace {pace_ms} ms");
}
