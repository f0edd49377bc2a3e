//! Relay capacity — what the guest↔counterparty link delivers, how fast
//! and at what cost per packet, against offered load.
//!
//! Each row is one simulated hour of `TrafficConfig::steady` traffic at an
//! offered rate, on `TestnetConfig::small(seed)` stepped slot by slot by
//! `run_for`, for three relayer set-ups: the deployed sequential relayer (one
//! guest-bound job in flight), the same with a second sequential relayer
//! beside it (`Testnet::add_relayer`), and the pipelined relayer (a host
//! block's worth of jobs in flight). Per row: delivered packets per
//! simulated second, latency p50/p90 from send to acknowledgement, the
//! cents the relayers' payers spent per delivered packet, packets relayed
//! per client update, the primary relayer's backlog at 30 and 60 minutes,
//! and the most jobs one relayer had in flight at once.
//!
//! A row *keeps up* when its latency p90 is at most 60 s and its backlog
//! does not grow: the backlog at 60 minutes is no larger than at 30, or
//! below one minute of offered packets. A set-up's *knee* is the highest
//! offered rate at which it keeps up. Latency is measured over the packets
//! sent before the last ten minutes; one still unacknowledged at the end
//! counts with its age then, a lower bound, so an overloaded row cannot
//! look fast by leaving its slow packets out.
//!
//! Everything is on the simulated clock: the same seed emits a
//! byte-identical JSON artifact (`BENCH_relay_capacity.json` in CI).
//!
//! Usage: `cargo run --release -p bench --bin relay_capacity -- [--seed N] [--quiet] [--json <path>]`

use relayer::{JobKind, Relayer};
use sim_crypto::time::{HOUR_MS, MINUTE_MS};
use telemetry::{Artifact, Flags, Section};
use testnet::{quantile, Testnet, TestnetConfig};
use workload::TrafficConfig;

/// Offered packets per simulated second, both directions together.
const RATES_PER_S: [f64; 7] = [0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0];
const USERS: u32 = 1_000;
/// Packets sent this close to the end are not measured.
const COOLDOWN_MS: u64 = 10 * MINUTE_MS;
/// A row keeps up only with its latency p90 at most this.
const KNEE_P90_S: f64 = 60.0;

#[derive(Clone, Copy, PartialEq)]
enum Setup {
    Sequential,
    SequentialPlusOne,
    Pipelined,
}

impl Setup {
    const ALL: [Setup; 3] = [Setup::Sequential, Setup::SequentialPlusOne, Setup::Pipelined];

    fn name(self) -> &'static str {
        match self {
            Setup::Sequential => "sequential",
            Setup::SequentialPlusOne => "sequential_plus_one",
            Setup::Pipelined => "pipelined",
        }
    }
}

/// One hour of one set-up at one offered rate.
struct Row {
    rate: f64,
    delivered_per_s: f64,
    p50_s: f64,
    p90_s: f64,
    /// Packets sent before the cooldown, and how many of them were acked.
    measured: usize,
    acked: usize,
    cents_per_packet: f64,
    packets_per_update: f64,
    backlog_30: usize,
    backlog_60: usize,
    /// The most guest-bound jobs one relayer had in flight at once.
    peak_jobs: usize,
    unexplained: u64,
}

impl Row {
    fn keeps_up(&self) -> bool {
        let minute_of_load = self.rate * 60.0;
        let growing = self.backlog_60 > self.backlog_30 && self.backlog_60 as f64 >= minute_of_load;
        self.p90_s <= KNEE_P90_S && !growing
    }
}

/// The primary relayer and the extra one, if any.
fn relayers(net: &Testnet) -> impl Iterator<Item = &Relayer> {
    std::iter::once(&net.relayer).chain(&net.extra_relayers)
}

/// What the relayers' fee payers hold, in lamports.
fn payer_balances(net: &Testnet) -> u64 {
    relayers(net).map(|r| net.host.bank().balance(&r.payer())).sum()
}

fn run(seed: u64, setup: Setup, rate: f64) -> Row {
    let mut config = TestnetConfig::small(seed);
    config.relayer.pipelined = setup == Setup::Pipelined;
    config.traffic = Some(TrafficConfig::steady(USERS, (1_000.0 / rate) as u64));
    let mut net = Testnet::build(config);
    if setup == Setup::SequentialPlusOne {
        net.add_relayer();
    }
    // Fees as the payers paid them: a job that loses a race to the other
    // relayer is abandoned and leaves no record, but it cost its fees.
    let balance_before = payer_balances(&net);
    net.run_for(HOUR_MS / 2);
    let backlog_30 = net.relayer.backlog();
    net.run_for(HOUR_MS / 2);
    let backlog_60 = net.relayer.backlog();

    let end_ms = net.host.now_ms();
    let report = net.run_report("relay_capacity");
    let mut acked = 0;
    let latencies_s: Vec<f64> = report
        .packets
        .iter()
        .filter(|p| p.first_ms + COOLDOWN_MS < end_ms)
        .map(|p| {
            // Send to acknowledgement; a losing relayer's retries can
            // still touch the trace after that.
            let ack = p.events.iter().find(|e| e.name == telemetry::names::PACKET_ACK);
            acked += usize::from(ack.is_some());
            (ack.map_or(end_ms, |e| e.at_ms) - p.first_ms) as f64 / 1_000.0
        })
        .collect();

    let counter = |name: &str| net.telemetry().counter(name);
    let delivered = counter("guest.packets.acked") + counter("cp.packets.acked")
        - counter("guest.acks.error")
        - counter("cp.acks.error");
    let jobs =
        |kind| relayers(&net).flat_map(|r| r.records()).filter(|r| r.kind == kind).count() as f64;
    let fees = balance_before - payer_balances(&net);
    Row {
        rate,
        delivered_per_s: delivered as f64 / (end_ms as f64 / 1_000.0),
        p50_s: quantile(&latencies_s, 0.5),
        p90_s: quantile(&latencies_s, 0.9),
        measured: latencies_s.len(),
        acked,
        cents_per_packet: host_sim::lamports_to_cents(fees) / delivered.max(1) as f64,
        packets_per_update: (jobs(JobKind::RecvPacket) + jobs(JobKind::AckPacket))
            / jobs(JobKind::ClientUpdate).max(1.0),
        backlog_30,
        backlog_60,
        peak_jobs: relayers(&net).map(|r| r.peak_jobs_in_flight()).max().unwrap_or(0),
        unexplained: net.delivery_accounting().map_or(0, |ledger| ledger.unexplained()),
    }
}

/// Runs one set-up over every rate into its section; returns its knee
/// (0 when it keeps up at none) and the unexplained arrivals it left.
fn sweep(section: &mut Section, seed: u64, setup: Setup) -> (f64, u64) {
    section.line(format!(
        "{:>6} {:>10} {:>8} {:>8} {:>11} {:>9} {:>10} {:>8} {:>8} {:>5}  keeps up",
        "rate/s",
        "deliv/s",
        "p50 s",
        "p90 s",
        "acked/meas",
        "¢/packet",
        "pkt/update",
        "bl@30m",
        "bl@60m",
        "jobs"
    ));
    let (mut knee, mut unexplained) = (0.0, 0);
    for rate in RATES_PER_S {
        let row = run(seed, setup, rate);
        let key = |what: &str| format!("{}_{}_{what}", setup.name(), row.rate);
        section
            .line(format!(
                "{:>6.1} {:>10.3} {:>8.1} {:>8.1} {:>11} {:>9.3} {:>10.2} {:>8} {:>8} {:>5}  {}",
                row.rate,
                row.delivered_per_s,
                row.p50_s,
                row.p90_s,
                format!("{}/{}", row.acked, row.measured),
                row.cents_per_packet,
                row.packets_per_update,
                row.backlog_30,
                row.backlog_60,
                row.peak_jobs,
                if row.keeps_up() { "yes" } else { "no" },
            ))
            .value(&key("delivered_per_s"), row.delivered_per_s)
            .value(&key("p50_s"), row.p50_s)
            .value(&key("p90_s"), row.p90_s)
            .value(&key("measured"), row.measured as f64)
            .value(&key("acked"), row.acked as f64)
            .value(&key("cents_per_packet"), row.cents_per_packet)
            .value(&key("packets_per_update"), row.packets_per_update)
            .value(&key("backlog_30m"), row.backlog_30 as f64)
            .value(&key("backlog_60m"), row.backlog_60 as f64)
            .value(&key("peak_jobs"), row.peak_jobs as f64);
        if row.keeps_up() {
            knee = row.rate;
        }
        unexplained += row.unexplained;
    }
    section
        .line(format!("knee: {knee} packets/s"))
        .value(&format!("{}_knee_per_s", setup.name()), knee);
    (knee, unexplained)
}

fn main() {
    let mut flags = Flags::from_env();
    let seed = flags.value("--seed", 2026u64);
    let output = flags.output();

    let mut artifact = Artifact::new(
        format!(
            "Relay capacity — delivered packets, latency and cost against offered load, \
             one simulated hour per rate (seed {seed})"
        ),
        "relay_capacity",
    );
    let mut knees = Vec::new();
    let mut unexplained = 0;
    for setup in Setup::ALL {
        let section = artifact.section(format!("{} relayer", setup.name().replace('_', " ")));
        let (knee, left) = sweep(section, seed, setup);
        knees.push(knee);
        unexplained += left;
    }
    let (sequential, pipelined) = (knees[0], knees[2]);
    let knee_ratio = if sequential > 0.0 { pipelined / sequential } else { 0.0 };
    artifact
        .section("summary")
        .line(format!(
            "the knee is the highest offered rate with latency p90 <= {KNEE_P90_S} s and a backlog \
             that does not grow (no larger at 60 min than at 30, or under a minute of offered load)"
        ))
        .line(format!(
            "knees: sequential {sequential}/s, plus one relayer {}/s, pipelined {pipelined}/s \
             ({knee_ratio:.1}x); {unexplained} arrivals unexplained by the delivery ledger",
            knees[1]
        ))
        .value("knee_ratio", knee_ratio)
        .value("unexplained", unexplained as f64);
    artifact.emit(output.quiet, output.json.as_deref());
}
