//! The paper's evaluation (§V): one simulated month of the deployment,
//! rendered as one artifact per figure and table — Figs. 2–6, Table I,
//! §V-A's packet delivery and §V-D's storage costs.
//!
//! The deployment is simulated once, in this process; every artifact is
//! built from that one [`EvaluationReport`]. Fig. 6's Δ sweep adds three
//! shorter runs of its own. Each artifact is printed as text unless
//! `--quiet`, and written as JSON to the path given by the flag named
//! after it (`--fig2_send_latency <path>`, …).
//!
//! Usage: `cargo run --release -p bench --bin paper -- [--days N] [--seed N] [--quiet] [--<artifact> <path>]…`

use host_sim::{lamports_to_usd, rent, MAX_ACCOUNT_SIZE};
use relayer::FeeStrategy;
use sealable_trie::Trie;
use telemetry::Flags;
use testnet::{
    evaluate, fraction_below, Artifact, ChaosPlan, EvaluationReport, Section, Summary,
    TestnetConfig, DAY_MS, HOUR_MS,
};

/// The simulated deployment and what Fig. 6's Δ sweep re-runs from it.
struct Month {
    report: EvaluationReport,
    days: u64,
    seed: u64,
}

/// Builds one artifact from the month.
type Build = fn(&Month) -> Artifact;

/// Every artifact, by name (its `generated_by` and its output flag), in
/// the order they are built and written.
const ARTIFACTS: [(&str, Build); 8] = [
    ("fig2_send_latency", fig2_send_latency),
    ("fig3_send_cost", fig3_send_cost),
    ("fig4_lc_update_latency", fig4_lc_update_latency),
    ("fig5_lc_update_cost", fig5_lc_update_cost),
    ("fig6_block_interval", fig6_block_interval),
    ("table1_validators", table1_validators),
    ("recv_packet_cost", recv_packet_cost),
    ("storage_costs", storage_costs),
];

fn main() {
    let mut flags = Flags::from_env();
    let days = flags.value("--days", 28);
    let seed = flags.value("--seed", 20240901);
    let quiet = flags.switch("--quiet");
    let paths: Vec<Option<String>> =
        ARTIFACTS.iter().map(|(name, _)| flags.optional(&format!("--{name}"))).collect();
    flags.finish();

    if !quiet {
        eprintln!("simulating {days} days of the paper deployment (seed {seed})…");
    }
    let mut config = TestnetConfig::paper();
    config.seed = seed;
    let started = std::time::Instant::now();
    let month = Month { report: evaluate(config, days * DAY_MS), days, seed };
    if !quiet {
        eprintln!("…done in {:.1?}", started.elapsed());
    }
    for ((name, build), path) in ARTIFACTS.iter().zip(&paths) {
        let artifact = build(&month);
        assert_eq!(artifact.generated_by, *name);
        artifact.emit(quiet, path.as_deref());
    }
}

/// Appends a value-CDF to an artifact section: quantile rows as text plus
/// named scalar values for the JSON twin. NaN samples are discarded by the
/// underlying quantile.
fn cdf_section(section: &mut Section, label: &str, unit: &str, values: &[f64], points: &[f64]) {
    section.line(format!("{label} (n = {}):", values.len()));
    for q in points {
        let v = testnet::quantile(values, *q);
        let pct = (q * 100.0) as u32;
        section.line(format!("  p{pct:<4} {v:>10.2} {unit}"));
        section.value(&format!("{label}_p{pct}"), v);
    }
    let summary = Summary::of(values);
    if summary.count > 0 {
        section.line(format!("  min  {:>10.2} {unit}", summary.min));
        section.line(format!("  max  {:>10.2} {unit}", summary.max));
        section.value(&format!("{label}_min"), summary.min);
        section.value(&format!("{label}_max"), summary.max);
    }
}

/// Fig. 2 — delay between `SendPacket` invocation and the packet being in a
/// finalised guest block (`FinalisedBlock` event).
///
/// Paper: all but three transfers completed within 21 seconds; the
/// stragglers were caused by validator signing delays (the dominant
/// validator's outage).
fn fig2_send_latency(month: &Month) -> Artifact {
    let report = &month.report;
    let latencies = &report.fig2_send_latency_s;

    let mut artifact =
        Artifact::new("Fig. 2 — SendPacket → FinalisedBlock delay", "fig2_send_latency");
    let section = artifact.section("");
    cdf_section(section, "delay", "s", latencies, &[0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99]);
    let within = fraction_below(latencies, 21.0);
    let stragglers = latencies.iter().filter(|v| **v > 21.0).count();
    section
        .line(format!("within 21 s: {:.1} %  ({stragglers} stragglers)", within * 100.0))
        .value("within_21s_fraction", within)
        .value("stragglers", stragglers as f64);
    section
        .line(format!(
            "in flight at run end: {} of {} sends",
            report.in_flight_sends,
            report.in_flight_sends + report.completed_sends
        ))
        .value("in_flight_sends", report.in_flight_sends as f64)
        .value("completed_sends", report.completed_sends as f64);
    section
        .line("")
        .line("paper: all but 3 transfers within 21 s; stragglers caused by")
        .line("validator signing delays (reproduced via validator #1's outage).");

    // CDF series for plotting.
    let series = artifact.section("cdf series (seconds, cumulative fraction)");
    for (value, fraction) in testnet::cdf(latencies).iter().step_by(latencies.len().max(20) / 20) {
        series.line(format!("{value:>10.2}  {fraction:.3}"));
    }
    artifact
}

/// Fig. 3 — cost of sending a packet (`SendPacket` invocation).
///
/// Paper: two clusters by fee policy — 17 % of sends used Solana priority
/// fees at ≈ 1.40 USD, 83 % used Jito block bundles at ≈ 3.02 USD.
///
/// Also prints the §VI-B ablation: the dynamic fee strategy's cost under
/// the same congestion trace.
fn fig3_send_cost(month: &Month) -> Artifact {
    let report = &month.report;
    let bundle: Vec<f64> = report
        .fig3_send_cost_usd
        .iter()
        .filter(|(_, used_bundle)| *used_bundle)
        .map(|(usd, _)| *usd)
        .collect();
    let priority: Vec<f64> = report
        .fig3_send_cost_usd
        .iter()
        .filter(|(_, used_bundle)| !*used_bundle)
        .map(|(usd, _)| *usd)
        .collect();
    let total = (bundle.len() + priority.len()).max(1);
    let bundle_mean = bundle.iter().sum::<f64>() / bundle.len().max(1) as f64;
    let priority_mean = priority.iter().sum::<f64>() / priority.len().max(1) as f64;

    let mut artifact = Artifact::new("Fig. 3 — cost of sending a packet", "fig3_send_cost");
    let section = artifact.section("");
    section
        .line(format!(
            "bundle cluster:   n = {:>4} ({:>4.1} %)  mean = {bundle_mean:.2} USD   (paper: 83 %, 3.02 USD)",
            bundle.len(),
            bundle.len() as f64 / total as f64 * 100.0,
        ))
        .value("bundle_count", bundle.len() as f64)
        .value("bundle_fraction", bundle.len() as f64 / total as f64)
        .value("bundle_mean_usd", bundle_mean);
    section
        .line(format!(
            "priority cluster: n = {:>4} ({:>4.1} %)  mean = {priority_mean:.2} USD   (paper: 17 %, 1.40 USD)",
            priority.len(),
            priority.len() as f64 / total as f64 * 100.0,
        ))
        .value("priority_count", priority.len() as f64)
        .value("priority_mean_usd", priority_mean);
    let all: Vec<f64> = report.fig3_send_cost_usd.iter().map(|(usd, _)| *usd).collect();
    cdf_section(section, "all sends", "USD", &all, &[0.10, 0.17, 0.50, 0.90]);

    // §VI-B ablation: what would the dynamic strategy pay for the same
    // send under calm vs. busy network conditions?
    let ablation = artifact.section("§VI-B ablation — dynamic fee strategy (same 1.4M CU budget)");
    let dynamic = FeeStrategy::Dynamic { high_micro_lamports_per_cu: 5_000_000, threshold: 0.6 };
    for load in [0.2, 0.5, 0.7, 0.9] {
        let policy = dynamic.policy(load);
        let lamports = 5_000 + policy.extra_lamports(1_400_000);
        let usd = lamports_to_usd(lamports);
        ablation
            .line(format!("load {load:.1}: {usd:>5.2} USD  ({policy:?})"))
            .value(&format!("dynamic_usd_load_{load:.1}"), usd);
    }
    ablation
        .line("")
        .line("takeaway: fixed strategies overpay in calm periods (3.02 USD vs")
        .line("0.001 USD base) and the dynamic strategy tracks congestion.");
    artifact
}

/// Fig. 4 — latency of light-client updates: time between the first and
/// last Solana transaction of one update.
///
/// Paper: updates averaged 36.5 transactions (σ = 5.8); 50 % completed in
/// under 25 s and 96 % in under a minute.
fn fig4_lc_update_latency(month: &Month) -> Artifact {
    let report = &month.report;
    let mut artifact = Artifact::new(
        "Fig. 4 — light-client update latency (first → last transaction)",
        "fig4_lc_update_latency",
    );
    let section = artifact.section("");
    let tx_counts: Vec<f64> = report.fig4_update_tx_counts.iter().map(|c| *c as f64).collect();
    let txs = Summary::of(&tx_counts);
    section
        .line(format!(
            "transactions per update: mean = {:.1}, σ = {:.1}   (paper: 36.5, σ 5.8)",
            txs.mean, txs.stddev
        ))
        .value("update_tx_mean", txs.mean)
        .value("update_tx_stddev", txs.stddev);
    cdf_section(
        section,
        "update latency",
        "s",
        &report.fig4_update_latency_s,
        &[0.25, 0.50, 0.75, 0.96],
    );
    let below_25 = fraction_below(&report.fig4_update_latency_s, 25.0);
    let below_60 = fraction_below(&report.fig4_update_latency_s, 60.0);
    section
        .line(format!("< 25 s: {:.0} %   (paper: 50 %)", below_25 * 100.0))
        .value("below_25s_fraction", below_25);
    section
        .line(format!("< 60 s: {:.0} %   (paper: 96 %)", below_60 * 100.0))
        .value("below_60s_fraction", below_60);
    artifact
}

/// Fig. 5 — cost of light-client updates: the total fees of all Solana
/// transactions comprising one update.
///
/// Paper: the relayer paid default fees (0.1 ¢ per transaction plus 0.1 ¢
/// per additional signature); the cost varies with the amount of header
/// data and the number of signatures checked.
fn fig5_lc_update_cost(month: &Month) -> Artifact {
    let report = &month.report;
    let mut artifact = Artifact::new("Fig. 5 — light-client update cost", "fig5_lc_update_cost");
    let section = artifact.section("");
    cdf_section(section, "update cost", "¢", &report.fig5_update_cost_cents, &[0.10, 0.50, 0.90]);

    // The paper attributes the variance to update size (signature count);
    // show the correlation between transactions and cost.
    let txs: Vec<f64> = report.fig4_update_tx_counts.iter().map(|c| *c as f64).collect();
    let r = testnet::correlation(&txs, &report.fig5_update_cost_cents);
    section
        .line(format!("correlation(transactions, cost) = {r:.3}  (cost is driven by update size)"))
        .value("tx_cost_correlation", r);
    let mean = report.fig5_update_cost_cents.iter().sum::<f64>()
        / report.fig5_update_cost_cents.len().max(1) as f64;
    section
        .line(format!("mean: {mean:.2} ¢ ≈ {:.1} transactions × 0.1 ¢ base fee", mean / 0.1))
        .value("mean_cost_cents", mean);
    artifact
}

/// Fig. 6 — interval between the generation of consecutive guest blocks.
///
/// Paper: the distribution follows the packet arrival rate up to the
/// Δ = 1 h cut-off, where an empty block is generated; about a quarter of
/// guest blocks sat at the cut-off, and five blocks took vastly longer
/// (validator signing delays).
///
/// Also sweeps Δ to show how the cut-off mass moves (a DESIGN.md ablation).
fn fig6_block_interval(month: &Month) -> Artifact {
    let intervals = &month.report.fig6_block_intervals_min;

    let mut artifact =
        Artifact::new("Fig. 6 — interval between consecutive guest blocks", "fig6_block_interval");
    let section = artifact.section("");
    cdf_section(section, "interval", "min", intervals, &[0.25, 0.50, 0.75, 0.90]);
    let at_cutoff = intervals.iter().filter(|v| **v >= 59.0 && **v < 70.0).count();
    let way_over = intervals.iter().filter(|v| **v >= 70.0).count();
    section
        .line(format!(
            "at the Δ = 1 h cut-off: {:.0} % ({at_cutoff} blocks)   (paper: ≈25 %)",
            at_cutoff as f64 / intervals.len().max(1) as f64 * 100.0,
        ))
        .value("at_cutoff_blocks", at_cutoff as f64);
    section
        .line(format!(
            "vastly over Δ: {way_over} blocks   (paper: 5, from validator signing delays)"
        ))
        .value("way_over_blocks", way_over as f64);

    // Ablation: how Δ changes the empty-block share (run shorter sweeps).
    let sweep_days = month.days.min(7);
    let sweep_section = artifact.section(format!("Δ sweep ({sweep_days}-day runs)"));
    for delta_h in [1u64, 2, 4] {
        let mut config = TestnetConfig::paper();
        config.seed = month.seed + delta_h;
        config.guest.delta_ms = delta_h * HOUR_MS;
        // Drop the day-11 outage plan for a clean sweep.
        config.chaos = ChaosPlan::default();
        let sweep = evaluate(config, sweep_days * DAY_MS);
        let v = &sweep.fig6_block_intervals_min;
        let cutoff_min = delta_h as f64 * 60.0;
        let at = v.iter().filter(|x| **x >= cutoff_min - 1.0).count();
        let empty_pct = at as f64 / v.len().max(1) as f64 * 100.0;
        sweep_section
            .line(format!(
                "Δ = {delta_h} h: {:>4} blocks, {empty_pct:>4.0} % empty (at cut-off)",
                v.len(),
            ))
            .value(&format!("empty_pct_delta_{delta_h}h"), empty_pct);
    }
    artifact
}

/// Table I — validator signing statistics: per-validator signature counts,
/// per-transaction cost, and block-to-signature latency quantiles.
///
/// Paper: 24 validators, 7 of which never signed; validator #1 signed every
/// block (1535) and its failure stalled finalisation for ~10 h (max latency
/// 35 957.6 s); cost and latency were uncorrelated (r = 0.007).
fn table1_validators(month: &Month) -> Artifact {
    let report = &month.report;
    let mut artifact = Artifact::new("Table I — Validator Signing Statistics", "table1_validators");
    let section = artifact.section("");
    section.line(format!(
        "    {:>6} {:>7} | {:>7} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8}",
        "sigs", "cost ¢", "min", "Q1", "med", "Q3", "max", "µ", "σ"
    ));
    for (rank, row) in report.table1.iter().enumerate() {
        let l = &row.latency;
        section.line(format!(
            "#{:<3} {:>6} {:>7.2} | {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>7.1} {:>8.1}",
            rank + 1,
            row.sigs,
            row.cost_cents,
            l.min,
            l.q1,
            l.median,
            l.q3,
            l.max,
            l.mean,
            l.stddev
        ));
    }
    let summary = artifact.section("summary");
    summary
        .line(format!(
            "active validators: {} of 24 (paper: 17 of 24; 7 submitted nothing)",
            report.table1.len()
        ))
        .value("active_validators", report.table1.len() as f64);
    summary
        .line(format!(
            "cost–latency correlation: {:.3}   (paper: 0.007 — paying more does not buy latency)",
            report.cost_latency_correlation
        ))
        .value("cost_latency_correlation", report.cost_latency_correlation);
    let max_latency = report.table1.iter().map(|r| r.latency.max).fold(0.0f64, f64::max);
    summary
        .line(format!(
            "longest signing delay: {max_latency:.1} s   (paper: 35 957.6 s — validator #1's outage)"
        ))
        .value("max_latency_s", max_latency);
    artifact
}

/// §V-A (receiving a packet) — `ReceivePacket` took 4–5 Solana
/// transactions; 98.2 % of deliveries cost 0.4 ¢ and the rest 0.5 ¢, all
/// landing in a single Solana block (no added latency).
fn recv_packet_cost(month: &Month) -> Artifact {
    let report = &month.report;
    let mut artifact =
        Artifact::new("§V-A — ReceivePacket transaction count and cost", "recv_packet_cost");
    let section = artifact.section("");
    let n = report.recv_tx_counts.len().max(1);
    for txs in 3..=6 {
        let count = report.recv_tx_counts.iter().filter(|c| **c == txs).count();
        if count > 0 {
            section
                .line(format!(
                    "{txs} transactions: {count:>5} deliveries ({:>5.1} %)",
                    count as f64 / n as f64 * 100.0
                ))
                .value(&format!("deliveries_{txs}_txs"), count as f64);
        }
    }
    section.line("(paper: 4–5 transactions per delivery)").line("");
    let mut cost_04 = 0;
    let mut cost_05 = 0;
    let mut other = 0;
    for cents in &report.recv_cost_cents {
        if (*cents - 0.4).abs() < 0.051 {
            cost_04 += 1;
        } else if (*cents - 0.5).abs() < 0.049 {
            cost_05 += 1;
        } else {
            other += 1;
        }
    }
    let total = (cost_04 + cost_05 + other).max(1);
    section
        .line(format!("≈0.4 ¢: {:>5.1} %   (paper: 98.2 %)", cost_04 as f64 / total as f64 * 100.0))
        .value("cost_04_fraction", cost_04 as f64 / total as f64);
    section
        .line(format!(
            "≈0.5 ¢: {:>5.1} %   (paper: the remaining 1.8 %)",
            cost_05 as f64 / total as f64 * 100.0
        ))
        .value("cost_05_fraction", cost_05 as f64 / total as f64);
    if other > 0 {
        section.line(format!("other:  {:>5.1} %", other as f64 / total as f64 * 100.0));
    }
    section.value("cost_other_fraction", other as f64 / total as f64);
    artifact
}

/// §V-D — storage costs: the 10 MiB guest state account required a
/// 14.6 k USD rent-exemption deposit (recoverable), holds > 72 k key-value
/// pairs, and the sealable trie keeps usage bounded long-term.
///
/// Includes the DESIGN.md ablation: trie growth under packet churn with
/// sealing ON vs OFF.
fn storage_costs(month: &Month) -> Artifact {
    let mut artifact = Artifact::new("§V-D — storage costs", "storage_costs");
    let section = artifact.section("");
    let deposit = rent::deposit_usd(MAX_ACCOUNT_SIZE);
    section
        .line(format!(
            "10 MiB account rent-exemption deposit: {deposit:.0} USD   (paper: 14.6 k USD)"
        ))
        .value("rent_deposit_usd", deposit);
    // A key-value pair in the trie costs roughly a leaf (~100 B with a
    // 32-byte value) plus its share of interior nodes.
    let mut trie = Trie::new();
    for i in 0..10_000u64 {
        trie.insert(&i.to_be_bytes(), &[0u8; 32]).unwrap();
    }
    let per_pair = trie.stats().byte_count as f64 / 10_000.0;
    let capacity = MAX_ACCOUNT_SIZE as f64 / per_pair;
    section
        .line(format!(
            "measured {per_pair:.0} B per key-value pair ⇒ 10 MiB holds ≈ {:.0} k pairs   (paper: >72 k)",
            capacity / 1_000.0
        ))
        .value("bytes_per_pair", per_pair)
        .value("capacity_pairs", capacity);

    // Ablation: sealing ON vs OFF under delivered-packet churn.
    let ablation = artifact.section("sealing ablation — bytes resident after N delivered packets");
    ablation.line("(receipts are write-once: without sealing they accumulate forever)");
    ablation.line(format!(
        "{:>8} {:>14} {:>14} {:>8}",
        "packets", "sealed (B)", "unsealed (B)", "ratio"
    ));
    for rounds in [1_000u64, 5_000, 20_000] {
        let mut sealed = Trie::new();
        let mut unsealed = Trie::new();
        for seq in 0..rounds {
            let key = seq.to_be_bytes();
            sealed.insert(&key, &[7u8; 32]).unwrap();
            sealed.seal(&key).unwrap();
            unsealed.insert(&key, &[7u8; 32]).unwrap();
        }
        let s = sealed.stats().byte_count;
        let u = unsealed.stats().byte_count;
        ablation
            .line(format!("{rounds:>8} {s:>14} {u:>14} {:>7.0}x", u as f64 / s.max(1) as f64))
            .value(&format!("sealed_bytes_{rounds}"), s as f64)
            .value(&format!("unsealed_bytes_{rounds}"), u as f64);
    }

    // End-of-run accounting from the deployment simulation.
    let report = &month.report;
    let run =
        artifact.section(format!("after {:.0} simulated days of traffic", report.duration_days));
    run.line(format!("resident trie bytes:  {:>10}", report.storage.trie_bytes))
        .value("trie_bytes", report.storage.trie_bytes as f64);
    run.line(format!("peak trie bytes:      {:>10}", report.storage.trie_peak_bytes))
        .value("trie_peak_bytes", report.storage.trie_peak_bytes as f64);
    run.line(format!("nodes reclaimed:      {:>10}", report.storage.sealed_reclaimed))
        .value("sealed_reclaimed", report.storage.sealed_reclaimed as f64);
    run.line(format!(
        "full state size:      {:>10} B  (of {} B allocated)",
        report.storage.state_bytes, MAX_ACCOUNT_SIZE
    ))
    .value("state_bytes", report.storage.state_bytes as f64);
    run.line(format!(
        "headroom: state is {:.2} % of the account — \"sufficient in the long term\"",
        report.storage.state_bytes as f64 / MAX_ACCOUNT_SIZE as f64 * 100.0
    ));
    artifact
}
