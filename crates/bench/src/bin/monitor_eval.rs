//! Monitor evaluation — chaos-scored detection quality of the standard
//! detector battery.
//!
//! Two parts:
//!
//! * **Coverage matrix** — one small-deployment scenario per fault kind
//!   (testnet faults on the two-chain harness, `chain-halt`/`link-down`
//!   on a three-chain mesh), each run scored against its own `ChaosPlan`
//!   and merged into a per-kind precision / recall / mean-time-to-detect
//!   table over every fault kind the chaos crate can inject.
//! * **Paper outage** — the full paper deployment replayed through day 12
//!   with `paper_outage_plan` (§V-C: the dominant validator crashes for
//!   ~10 h on day 11). The client-staleness watchdog must catch the
//!   stall orders of magnitude faster than the outage lasts.
//!
//! Everything is deterministic: the same seed emits a byte-identical
//! JSON artifact (`BENCH_monitor_eval.json` in CI).
//!
//! Usage: `cargo run --release -p bench --bin monitor_eval -- [--minutes N] [--days N] [--seed N] [--skip-paper] [--quiet] [--json <path>]`

use chaos::{ChaosPlan, Fault};
use mesh::{Mesh, MeshConfig, PathPolicy};
use monitor::{score, EvalReport, KindScore, MonitorConfig};
use sim_crypto::time::{DAY_MS, MINUTE_MS};
use telemetry::{Artifact, Flags, Section};
use testnet::{Testnet, TestnetConfig};

/// Length of the §V-C day-11 outage (9 h 59 m).
const PAPER_OUTAGE_MS: u64 = 35_940_000;

/// Minutes-compressed thresholds for the coverage scenarios, so every
/// fault kind fits in a sub-hour simulated run: calibration ends before
/// the fault window opens at one third of the run.
fn eval_monitor(duration_ms: u64) -> MonitorConfig {
    let mut config = MonitorConfig::small();
    config.cadence_ms = 30_000;
    config.debounce_ms = 2 * MINUTE_MS;
    config.hold_down_ms = 3 * MINUTE_MS;
    config.head_staleness_slo_ms = 5 * MINUTE_MS;
    config.client_staleness_slo_ms = 8 * MINUTE_MS;
    config.stuck_packet_slo_ms = 8 * MINUTE_MS;
    config.latency_window_ms = 10 * MINUTE_MS;
    config.calibration_ms = duration_ms / 3 - 2 * MINUTE_MS;
    config.latency_factor = 2.0;
    config.min_window_observations = 5;
    config.fee_window_ms = 10 * MINUTE_MS;
    config.fee_factor = 1.6;
    config.fee_min_delta = 10_000;
    config
}

struct Scenario {
    name: &'static str,
    plan: ChaosPlan,
    /// Safety-net override, ms. The small profile's 15 s liveness
    /// backstop (every available validator signs) caps finality delay at
    /// ~15 s, masking sub-backstop latency faults; the latency and
    /// clock-skew scenarios relax it so the fault is observable at all.
    safety_net_ms: Option<u64>,
}

impl Scenario {
    fn new(name: &'static str, plan: ChaosPlan) -> Self {
        Self { name, plan, safety_net_ms: None }
    }
}

/// The testnet leg of the battery: one scenario per fault kind the
/// two-chain harness can express. Fault windows sit in the middle third
/// so the detectors calibrate on healthy traffic first and the recovery
/// (alert resolution) is observable before the run ends.
fn testnet_scenarios(seed: u64, duration_ms: u64) -> Vec<Scenario> {
    let third = duration_ms / 3;
    let window = (third, 2 * third);
    vec![
        Scenario::new(
            // Two of the four equal-stake validators: the survivors hold
            // 200 of 400 stake, below the 2/3 quorum, so finalisation
            // stalls and `guest.head` freezes.
            "validator-crash",
            ChaosPlan::new(seed)
                .with(window.0, window.1, Fault::ValidatorCrash { validator: 0 })
                .with(window.0, window.1, Fault::ValidatorCrash { validator: 1 }),
        ),
        Scenario {
            // Spike two validators so the 3-of-4 quorum must include a
            // slow one: signature latency dominates finality latency.
            name: "validator-latency",
            plan: ChaosPlan::new(seed)
                .with(
                    window.0,
                    window.1,
                    Fault::ValidatorLatencySpike { validator: 0, factor: 10.0 },
                )
                .with(
                    window.0,
                    window.1,
                    Fault::ValidatorLatencySpike { validator: 1, factor: 10.0 },
                ),
            safety_net_ms: Some(2 * MINUTE_MS),
        },
        Scenario {
            name: "validator-clock-skew",
            plan: ChaosPlan::new(seed)
                .with(
                    window.0,
                    window.1,
                    Fault::ValidatorClockSkew { validator: 0, offset_ms: 180_000 },
                )
                .with(
                    window.0,
                    window.1,
                    Fault::ValidatorClockSkew { validator: 1, offset_ms: 180_000 },
                ),
            safety_net_ms: Some(4 * MINUTE_MS),
        },
        Scenario::new(
            "relayer-halt",
            ChaosPlan::new(seed).with(window.0, window.1, Fault::RelayerHalt),
        ),
        Scenario::new(
            "chunk-drop",
            ChaosPlan::new(seed).with(window.0, window.1, Fault::ChunkDrop { probability: 0.6 }),
        ),
        Scenario::new(
            "chunk-duplicate",
            ChaosPlan::new(seed).with(
                window.0,
                window.1,
                Fault::ChunkDuplicate { probability: 0.9 },
            ),
        ),
        Scenario::new(
            "chunk-reorder",
            ChaosPlan::new(seed).with(window.0, window.1, Fault::ChunkReorder { probability: 0.9 }),
        ),
        Scenario::new(
            "congestion-storm",
            ChaosPlan::new(seed).with(window.0, window.1, Fault::CongestionStorm { load: 0.92 }),
        ),
        Scenario::new(
            "inclusion-failure",
            ChaosPlan::new(seed).with(
                window.0,
                window.1,
                Fault::InclusionFailureBurst { probability: 0.35 },
            ),
        ),
        Scenario::new(
            "counterparty-halt",
            ChaosPlan::new(seed).with(window.0, window.1, Fault::CounterpartyHalt),
        ),
        Scenario::new(
            "counterfeit-mint",
            ChaosPlan::new(seed).at(
                window.0,
                Fault::CounterfeitMint {
                    account: "mallory".into(),
                    denom: "transfer/channel-0/wsol".into(),
                    amount: 1_000_000_000,
                },
            ),
        ),
    ]
}

/// Runs one testnet scenario and returns its detection-quality report.
fn run_testnet_scenario(seed: u64, duration_ms: u64, scenario: &Scenario) -> EvalReport {
    let mut config = TestnetConfig::small(seed);
    config.workload.outbound_mean_gap_ms = 45_000;
    config.workload.inbound_mean_gap_ms = 60_000;
    config.monitor = eval_monitor(duration_ms);
    config.chaos = scenario.plan.clone();
    if let Some(safety_net_ms) = scenario.safety_net_ms {
        config.safety_net_ms = safety_net_ms;
    }
    let mut net = Testnet::build(config);
    net.run_for(duration_ms);
    score(&net.config().chaos, net.alert_records(), 10 * MINUTE_MS)
}

/// The mesh leg: `chain-halt` and `link-down` only exist on the
/// multi-chain topology, watched by the per-chain staleness and
/// stuck-packet detectors.
fn run_mesh_scenarios(seed: u64) -> Vec<(&'static str, EvalReport)> {
    let grace = 10 * MINUTE_MS;
    let mut monitor = eval_monitor(30 * MINUTE_MS);
    monitor.head_staleness_slo_ms = 3 * MINUTE_MS;
    monitor.stuck_packet_slo_ms = 3 * MINUTE_MS;
    monitor.debounce_ms = MINUTE_MS;

    // chain-halt: the middle chain of an A–B–C line stops producing
    // blocks for ten minutes; `mesh.chain-b.head` goes stale.
    let mut config = MeshConfig::line(3, seed);
    config.chaos = ChaosPlan::new(seed).with(
        2 * MINUTE_MS,
        12 * MINUTE_MS,
        Fault::ChainHalt { chain: "chain-b".into() },
    );
    let mut halted = Mesh::build(config).expect("3-chain line builds");
    halted.enable_monitor(monitor.clone());
    halted.run_for(20 * MINUTE_MS);
    let halt_report = score(&halted.config().chaos, halted.alert_records(), grace);

    // link-down: the A–B link is down from t=0; a transfer sent into it
    // sits in flight past the stuck-packet SLO until the link recovers
    // (the hop timeout is raised above the fault so the packet stays
    // open rather than refunding early).
    let mut config = MeshConfig::line(3, seed + 1);
    config.hop_timeout_ms = 15 * MINUTE_MS;
    config.chaos = ChaosPlan::new(seed + 1).with(
        0,
        10 * MINUTE_MS,
        Fault::LinkDown { link: "chain-a<>chain-b".into() },
    );
    let mut downed = Mesh::build(config).expect("3-chain line builds");
    downed.enable_monitor(monitor);
    downed.mint("chain-a", "alice", "tok-a", 1_000).expect("chain-a exists");
    downed
        .send_along_route(
            "chain-a",
            "chain-c",
            "alice",
            "carol",
            "tok-a",
            250,
            &PathPolicy::FewestHops,
        )
        .expect("the 2-hop route resolves");
    downed.run_for(20 * MINUTE_MS);
    let down_report = score(&downed.config().chaos, downed.alert_records(), grace);

    vec![("chain-halt", halt_report), ("link-down", down_report)]
}

fn matrix_row(section: &mut Section, row: &KindScore) {
    let mttd = row
        .mean_time_to_detect_ms
        .map_or_else(|| "—".to_string(), |ms| format!("{:.1}", ms as f64 / MINUTE_MS as f64));
    section
        .line(format!(
            "{:<20} {:>3} {:>3} {:>7.2} {:>9.2} {:>9}  {}",
            row.kind,
            row.injected,
            row.detected,
            row.recall,
            row.precision,
            mttd,
            row.detectors.join("+"),
        ))
        .value(&format!("{}_injected", row.kind), row.injected as f64)
        .value(&format!("{}_detected", row.kind), row.detected as f64)
        .value(&format!("{}_recall", row.kind), row.recall)
        .value(&format!("{}_precision", row.kind), row.precision);
    if let Some(ms) = row.mean_time_to_detect_ms {
        section.value(&format!("{}_mttd_ms", row.kind), ms as f64);
    }
}

/// Replays the paper deployment (24 calibrated validators, Poisson
/// traffic, `paper_outage_plan`) through `days` days and scores the
/// day-11 stall against the paper-profile monitor.
fn paper_outage(section: &mut Section, days: u64) {
    let config = TestnetConfig::paper();
    let monitor = config.monitor.clone();
    let plan = config.chaos.clone();
    let mut net = Testnet::build(config);
    net.run_for(days * DAY_MS);

    let report = score(&plan, net.alert_records(), 2 * 60 * MINUTE_MS);
    let row = report.kind("validator-crash").expect("the outage plan injects a crash");
    let mttd_ms = row.mean_time_to_detect_ms.unwrap_or(0);
    // Worst-case detection latency from fault injection: the guest may
    // legitimately generate one more (unfinalisable) block on demand
    // after the crash starts — up to one healthy head gap — before the
    // staleness clock even starts, then SLO + debounce + two cadences.
    let healthy_head_gap_ms = 65 * MINUTE_MS;
    let budget_ms = healthy_head_gap_ms
        + monitor.head_staleness_slo_ms
        + monitor.debounce_ms
        + 2 * monitor.cadence_ms;
    let staleness_alerts =
        net.alert_records().iter().filter(|r| r.detector == "client.staleness").count();

    section
        .line(format!("outage: validator #1 down for {:.1} h on day 11", PAPER_OUTAGE_MS as f64 / 3_600_000.0))
        .line(format!(
            "detected: {} of {} windows, by {}",
            row.detected,
            row.injected,
            report.events.first().and_then(|e| e.detected_by.as_deref()).unwrap_or("nothing"),
        ))
        .line(format!(
            "MTTD {:.1} min (worst-case budget {:.1} min, outage {:.1} h — detection is {}× faster)",
            mttd_ms as f64 / MINUTE_MS as f64,
            budget_ms as f64 / MINUTE_MS as f64,
            PAPER_OUTAGE_MS as f64 / 3_600_000.0,
            PAPER_OUTAGE_MS.checked_div(mttd_ms).unwrap_or(0),
        ))
        .line(format!(
            "client-staleness alerts fired over {days} days: {staleness_alerts} (precision {:.2})",
            row.precision,
        ))
        .value("paper_outage_detected", row.detected as f64)
        .value("paper_outage_injected", row.injected as f64)
        .value("paper_outage_mttd_ms", mttd_ms as f64)
        .value("paper_mttd_budget_ms", budget_ms as f64)
        .value("paper_outage_duration_ms", PAPER_OUTAGE_MS as f64)
        .value("paper_precision", row.precision)
        .value("paper_staleness_alerts", staleness_alerts as f64);
}

fn main() {
    let mut flags = Flags::from_env();
    let minutes = flags.value("--minutes", 45u64).clamp(30, 240);
    // The day-11 outage must fit inside the replay.
    let days = flags.value("--days", 12u64).clamp(12, 30);
    let seed = flags.value("--seed", 7u64);
    let skip_paper = flags.switch("--skip-paper");
    let output = flags.output();
    let duration_ms = minutes * MINUTE_MS;

    let mut artifact = Artifact::new(
        format!("Monitor evaluation — chaos-scored detection quality (seed {seed})"),
        "monitor_eval",
    );

    let mut merged = EvalReport::default();
    for scenario in testnet_scenarios(seed, duration_ms) {
        merged.merge(run_testnet_scenario(seed, duration_ms, &scenario));
        if !output.quiet {
            eprintln!("  scenario {}: done", scenario.name);
        }
    }
    for (name, report) in run_mesh_scenarios(seed) {
        merged.merge(report);
        if !output.quiet {
            eprintln!("  scenario {name}: done");
        }
    }

    let matrix = artifact.section("detector-coverage matrix");
    matrix.line(format!(
        "one {minutes}-minute scenario per fault kind; MTTD in minutes, grace 10 min"
    ));
    matrix.line(format!(
        "{:<20} {:>3} {:>3} {:>7} {:>9} {:>9}  relevant detectors",
        "fault kind", "inj", "det", "recall", "precision", "MTTD m"
    ));
    for row in &merged.kinds {
        matrix_row(matrix, row);
    }
    let covered = merged.kinds.iter().filter(|k| k.detected > 0).count();
    matrix
        .line("")
        .line(format!(
            "{covered} of {} fault kinds detected; {} alerts fired across the battery",
            merged.kinds.len(),
            merged.alerts_total,
        ))
        .value("kinds_total", merged.kinds.len() as f64)
        .value("kinds_detected", covered as f64)
        .value("alerts_total", merged.alerts_total as f64);

    if !skip_paper {
        let section = artifact.section(format!("paper day-11 outage ({days} simulated days)"));
        paper_outage(section, days);
    }

    artifact.emit(output.quiet, output.json.as_deref());
}
