//! The four workloads: what each one runs, and one run of it.
//!
//! All four are open loop: arrivals come from `workload::TrafficGenerator`
//! (or the paper's two Poisson streams) on the sim clock whatever the
//! backlog. A workload's inputs are a pure function of the seed; the
//! program under test only ever sees the generated configs.

use std::time::Instant;

use apps::PacketFee;
use mesh::{Mesh, MeshConfig, TrafficOutcome};
use monitor::MonitorConfig;
use telemetry::{names, AttributionReport, DeliveryAccounting, PacketTraceReport, RunReport};
use testnet::{Testnet, TestnetConfig, DAY_MS, HOUR_MS};
use workload::{AppMix, TrafficConfig};

use crate::trace::{SpanGuard, Tracer};

const MINUTE_MS: u64 = 60_000;

/// Attribution must name at least this share of the end-to-end latency.
const MIN_COVERAGE_PCT: f64 = 95.0;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

pub enum Kind {
    /// One guest↔counterparty link on the testnet harness.
    Testnet {
        config: fn(u64) -> TestnetConfig,
        /// Discrete-event `run_heavy_for`, or the polled `run_for` that
        /// every `fig*` binary uses.
        heavy: bool,
        sim_ms: u64,
        smoke_ms: u64,
        /// The run loop advances in chunks of this size; a traced run
        /// records one span and one grid sample per chunk.
        chunk_ms: u64,
        /// Arrivals never stop, so packets sent in the last stretch cannot
        /// finish: lifecycles that start inside it are not measured.
        cooldown_ms: u64,
    },
    /// A four-chain line mesh under mixed application traffic. Traffic
    /// stops after `traffic_ms` and the mesh drains for up to `drain_ms`,
    /// then runs `MESH_SETTLE_MS` more.
    Mesh { traffic_ms: u64, smoke_ms: u64, drain_ms: u64 },
}

fn paper(seed: u64) -> TestnetConfig {
    TestnetConfig { seed, ..TestnetConfig::paper() }
}

fn steady(seed: u64) -> TestnetConfig {
    TestnetConfig {
        traffic: Some(TrafficConfig::steady(1_000, 7_000)),
        ..TestnetConfig::small(seed)
    }
}

fn storm(seed: u64) -> TestnetConfig {
    TestnetConfig {
        traffic: Some(TrafficConfig::airdrop_storm(1_000, 30_000)),
        ..TestnetConfig::small(seed)
    }
}

/// `run_with_traffic` stops draining the moment the last route's funds
/// arrive; the acknowledgement of that last leg is still on its way back.
const MESH_SETTLE_MS: u64 = MINUTE_MS;
/// The storm counts as drained once this few packets remain in the link.
pub const DRAINED_BACKLOG: u64 = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_month",
        why: "TestnetConfig::paper() on the polled run_for, 14 sim days with the day-11 outage: ~280 \
              packets in 2.5 M slots, so per-step overhead and keep-alive blocks are the work, trie cost is nil",
        kind: Kind::Testnet {
            config: paper,
            heavy: false,
            sim_ms: 14 * DAY_MS,
            smoke_ms: 12 * HOUR_MS,
            chunk_ms: HOUR_MS,
            cooldown_ms: HOUR_MS,
        },
    },
    Workload {
        name: "steady_day",
        why: "TestnetConfig::small + steady(1000 users, 7 s gap) on run_heavy_for, 5 sim hours: ~50 % of \
              relayer capacity, nothing queues, state only grows, so the per-block trie clone shows",
        kind: Kind::Testnet {
            config: steady,
            heavy: true,
            sim_ms: 5 * HOUR_MS,
            smoke_ms: 12 * MINUTE_MS,
            chunk_ms: MINUTE_MS,
            cooldown_ms: 10 * MINUTE_MS,
        },
    },
    Workload {
        name: "storm_drain",
        why: "TestnetConfig::small + airdrop_storm(1000 users, 30 s gap), 5 sim hours: 1.33/s into a \
              0.29/s link for 30 min, the relayer saturated, backlog peaks near 1860, latency is queueing",
        kind: Kind::Testnet {
            config: storm,
            heavy: true,
            sim_ms: 5 * HOUR_MS,
            smoke_ms: 62 * MINUTE_MS,
            chunk_ms: MINUTE_MS,
            cooldown_ms: 10 * MINUTE_MS,
        },
    },
    Workload {
        name: "mesh_apps",
        why: "MeshConfig::line(4) with packet fees, airdrop_storm(400 users, 60 s gap) split evenly over \
              transfer/NFT/ICA, 6 sim hours: no host, guest or Alg. 2 relayer; handlers and app stacks work",
        kind: Kind::Mesh {
            traffic_ms: 6 * HOUR_MS,
            smoke_ms: 62 * MINUTE_MS,
            drain_ms: 2 * HOUR_MS,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The deployment a run leaves behind, kept so a traced run can read the
/// layers' own public accessors.
pub enum Net {
    Testnet(Box<Testnet>),
    Mesh(Box<Mesh>, TrafficOutcome),
}

/// The modelled link's queues at one chunk boundary of a traced run.
pub struct GridSample {
    pub at_ms: u64,
    pub backlog: usize,
    pub job_in_flight: bool,
    pub mempool: usize,
    pub ledger: Option<DeliveryAccounting>,
}

/// One run of a workload.
pub struct Rep {
    /// Config, `build` and user minting, up to the first simulated step.
    /// (The mesh mints its users inside `run_with_traffic`.)
    pub setup_s: f64,
    /// Wall of the run loop alone.
    pub run_s: f64,
    /// `VmHWM` right after the run loop, before any report is built.
    pub peak_rss_mib: f64,
    /// Simulated span the run loop covered.
    pub sim_ms: u64,
    /// Lifecycles whose first event is before this instant are measured.
    pub window_ms: u64,
    pub net: Net,
    pub report: RunReport,
    /// The determinism fingerprint: same seed ⇒ byte-identical.
    pub report_json: String,
    /// Empty unless traced.
    pub grid: Vec<GridSample>,
}

fn span<'t>(tracer: Option<&'t Tracer>, name: &'static str) -> Option<SpanGuard<'t>> {
    tracer.map(|t| t.span(name))
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// Only the set-up of a workload, timed: config, `build`, user minting.
pub fn setup_only(workload: &Workload, seed: u64) -> f64 {
    let started = Instant::now();
    match &workload.kind {
        Kind::Testnet { config, .. } => drop(Testnet::build(config(seed))),
        Kind::Mesh { .. } => drop(build_mesh(seed)),
    }
    started.elapsed().as_secs_f64()
}

fn build_mesh(seed: u64) -> Mesh {
    let mut config = MeshConfig::line(4, seed);
    config.packet_fee = Some(PacketFee { recv_fee: 5, ack_fee: 3, timeout_fee: 2 });
    let mut net = Mesh::build(config).expect("line topologies validate");
    net.enable_monitor(MonitorConfig::small());
    net
}

/// Runs `workload` once. With a tracer the testnet's own profiler is on,
/// the benchmark's calls are wrapped in spans and the queues are sampled
/// at every chunk boundary — all pure observers of the same sim timeline.
pub fn run(workload: &Workload, seed: u64, smoke: bool, tracer: Option<&Tracer>) -> Rep {
    let started = Instant::now();
    let (setup_s, run_s, peak_rss_mib, sim_ms, window_ms, net, grid) = match &workload.kind {
        Kind::Testnet { config, heavy, sim_ms: full_ms, smoke_ms, chunk_ms, cooldown_ms } => {
            let span_ms = if smoke { *smoke_ms } else { *full_ms };
            let mut testnet = {
                let _build = span(tracer, "testnet.build");
                let mut config = config(seed);
                config.profile = tracer.is_some();
                Box::new(Testnet::build(config))
            };
            let setup_s = started.elapsed().as_secs_f64();
            let mut grid = Vec::new();
            let run_started = Instant::now();
            {
                let _run = span(tracer, "testnet.run");
                let mut now = 0;
                while now < span_ms {
                    let step = (*chunk_ms).min(span_ms - now);
                    {
                        let _chunk = span(tracer, "testnet.chunk");
                        if *heavy {
                            testnet.run_heavy_for(step);
                        } else {
                            testnet.run_for(step);
                        }
                    }
                    now += step;
                    if tracer.is_some() {
                        grid.push(GridSample {
                            at_ms: now,
                            backlog: testnet.relayer.backlog(),
                            job_in_flight: testnet.relayer.job_in_flight(),
                            mempool: testnet.host_mempool_len(),
                            ledger: testnet.delivery_accounting(),
                        });
                    }
                }
            }
            let run_s = run_started.elapsed().as_secs_f64();
            let window_ms = span_ms.saturating_sub((*cooldown_ms).min(span_ms / 2));
            (setup_s, run_s, peak_rss_mib(), span_ms, window_ms, Net::Testnet(testnet), grid)
        }
        Kind::Mesh { traffic_ms, smoke_ms, drain_ms } => {
            let traffic_ms = if smoke { *smoke_ms } else { *traffic_ms };
            let mut mesh = {
                let _build = span(tracer, "mesh.build");
                Box::new(build_mesh(seed))
            };
            let setup_s = started.elapsed().as_secs_f64();
            let traffic = TrafficConfig::airdrop_storm(400, 60_000).with_app_mix(AppMix::even());
            let run_started = Instant::now();
            let outcome = {
                let _run = span(tracer, "mesh.run");
                let outcome = mesh
                    .run_with_traffic(&traffic, seed, traffic_ms, *drain_ms)
                    .expect("a 4-chain line accepts traffic");
                mesh.run_for(MESH_SETTLE_MS);
                outcome
            };
            let run_s = run_started.elapsed().as_secs_f64();
            let (peak, sim_ms) = (peak_rss_mib(), mesh.now_ms());
            // Traffic stops before the drain, so every lifecycle counts.
            (setup_s, run_s, peak, sim_ms, u64::MAX, Net::Mesh(mesh, outcome), Vec::new())
        }
    };
    let report = {
        let _report = span(tracer, "telemetry.run_report");
        match &net {
            Net::Testnet(testnet) => testnet.run_report(workload.name),
            Net::Mesh(mesh, _) => mesh.run_report(workload.name),
        }
    };
    let report_json = {
        let _json = span(tracer, "telemetry.to_json");
        report.to_json()
    };
    Rep { setup_s, run_s, peak_rss_mib, sim_ms, window_ms, net, report, report_json, grid }
}

/// What the modelled link did, from the sim clock alone.
pub struct Sim {
    /// Operations due in the measurement window: lifecycles started in it
    /// plus arrivals the driver rejected, skipped or could not route.
    pub attempted: u64,
    /// Of those, the ones a success acknowledgement closed.
    pub succeeded: u64,
    /// First event to last event of the acknowledged ones, ascending.
    pub latencies_ms: Vec<u64>,
    pub attribution: AttributionReport,
    /// Wall of `AttributionReport::from_report`.
    pub attribution_ms: f64,
    /// Correctness checks that did not hold (empty when all do).
    pub failures: Vec<String>,
}

fn acknowledged(packet: &PacketTraceReport) -> bool {
    packet.events.iter().any(|e| e.name == names::PACKET_ACK)
}

/// Ascending first-to-last-event latencies of the acknowledged lifecycles
/// that started before `window_ms` and that `keep` accepts.
pub fn latencies_ms(
    report: &RunReport,
    window_ms: u64,
    keep: impl Fn(&PacketTraceReport) -> bool,
) -> Vec<u64> {
    let mut latencies: Vec<u64> = report
        .packets
        .iter()
        .filter(|p| p.first_ms < window_ms && acknowledged(p) && keep(p))
        .map(|p| p.last_ms - p.first_ms)
        .collect();
    latencies.sort_unstable();
    latencies
}

/// Reads a run's sim-clock results and runs the correctness checks.
pub fn summarise(rep: &Rep) -> Sim {
    let report = &rep.report;
    let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
    let mut failures = Vec::new();
    let started = report.packets.iter().filter(|p| p.first_ms < rep.window_ms).count() as u64;
    let latencies = latencies_ms(report, rep.window_ms, |_| true);

    // Lifecycles do not say whether their acknowledgement was an error;
    // the counters do, so every error ack is taken off the successes.
    let (refused, error_acks) = match &rep.net {
        Net::Testnet(testnet) => {
            let rejected = match testnet.delivery_accounting() {
                Some(ledger) => {
                    if ledger.unexplained() != 0 {
                        failures.push(format!(
                            "delivery ledger leaves {} arrivals unexplained",
                            ledger.unexplained()
                        ));
                    }
                    ledger.rejected
                }
                None => 0,
            };
            for violation in testnet.invariant_violations() {
                if violation.faults.is_empty() {
                    failures.push(format!(
                        "invariant {:?} violated at {} ms with no fault active: {}",
                        violation.invariant, violation.at_ms, violation.details
                    ));
                }
            }
            (rejected, counter("guest.acks.error") + counter("cp.acks.error"))
        }
        Net::Mesh(mesh, outcome) => {
            for (what, drift) in [
                ("fee_imbalance", mesh.fee_imbalance()),
                ("supply_drift", mesh.supply_drift()),
                ("nft_supply_drift", u128::from(mesh.nft_supply_drift())),
            ] {
                if drift != 0 {
                    failures.push(format!("mesh {what} is {drift}, not 0"));
                }
            }
            (outcome.skipped_broke + outcome.unroutable, counter("mesh.acks.error"))
        }
    };

    let attribution_started = Instant::now();
    let attribution = AttributionReport::from_report(report);
    let attribution_ms = attribution_started.elapsed().as_secs_f64() * 1_000.0;
    if attribution.completed > 0 && attribution.coverage_pct() < MIN_COVERAGE_PCT {
        failures.push(format!(
            "latency attribution names only {:.1} % of end-to-end time",
            attribution.coverage_pct()
        ));
    }

    Sim {
        attempted: started + refused,
        succeeded: (latencies.len() as u64).saturating_sub(error_acks).min(started + refused),
        latencies_ms: latencies,
        attribution,
        attribution_ms,
        failures,
    }
}
