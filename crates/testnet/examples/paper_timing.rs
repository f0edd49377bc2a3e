//! Calibration dashboard: runs the paper-configuration deployment for N
//! days (default 2) and prints every evaluation quantity next to its
//! paper target. Used while tuning the simulator; the polished per-figure
//! binaries live in `crates/bench`.
//!
//! ```text
//! cargo run --release -p testnet --example paper_timing -- 28
//! ```
//!
//! `--run-report <path>` additionally writes the telemetry
//! [`testnet::RunReport`] of the run as JSON (ci.sh gates on it).

use telemetry::Flags;
use testnet::{report_of, Testnet, TestnetConfig, DAY_MS};
fn main() {
    let mut flags = Flags::from_env();
    let run_report_path: Option<String> = flags.optional("--run-report");
    let days: u64 = flags.positional("DAYS", 2);
    flags.finish();
    let start = std::time::Instant::now();
    let mut net = Testnet::build(TestnetConfig::paper());
    net.run_for(days * DAY_MS);
    let report = report_of(&net, days * DAY_MS);
    eprintln!("wall: {:?}", start.elapsed());
    if let Some(path) = run_report_path {
        let run_report = net.run_report("paper-timing");
        std::fs::write(&path, run_report.to_json()).expect("run report written");
        eprintln!("run report: {path} ({} packets)", run_report.packets.len());
    }
    eprintln!("sends completed={} inflight={}", report.completed_sends, report.in_flight_sends);
    eprintln!(
        "fig2 n={} max={:?}",
        report.fig2_send_latency_s.len(),
        report.fig2_send_latency_s.iter().cloned().fold(0.0f64, f64::max)
    );
    eprintln!(
        "fig4 n={} mean_txs={:.1}",
        report.fig4_update_tx_counts.len(),
        report.fig4_update_tx_counts.iter().sum::<usize>() as f64
            / report.fig4_update_tx_counts.len().max(1) as f64
    );
    {
        let v = &report.fig4_update_tx_counts;
        let mean = v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        let var = v.iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / v.len().max(1) as f64;
        eprintln!("fig4 txs sigma={:.1}", var.sqrt());
        let lat = &report.fig4_update_latency_s;
        let mut sl = lat.clone();
        sl.sort_by(f64::total_cmp);
        if !sl.is_empty() {
            eprintln!(
                "fig4 lat p50={:.1}s p96={:.1}s max={:.1}s",
                sl[sl.len() / 2],
                sl[(sl.len() * 96 / 100).min(sl.len() - 1)],
                sl[sl.len() - 1]
            );
        }
        let mut f5 = report.fig5_update_cost_cents.clone();
        f5.sort_by(f64::total_cmp);
        if !f5.is_empty() {
            eprintln!(
                "fig5 cost p10={:.2}c p50={:.2}c p90={:.2}c",
                f5[f5.len() / 10],
                f5[f5.len() / 2],
                f5[f5.len() * 9 / 10]
            );
        }
        let mut f2 = report.fig2_send_latency_s.clone();
        f2.sort_by(f64::total_cmp);
        if !f2.is_empty() {
            eprintln!(
                "fig2 p50={:.1}s p99={:.1}s within21={:.3}",
                f2[f2.len() / 2],
                f2[f2.len() * 99 / 100],
                f2.iter().filter(|v| **v <= 21.0).count() as f64 / f2.len() as f64
            );
        }
        let b: Vec<f64> =
            report.fig3_send_cost_usd.iter().filter(|(_, bu)| *bu).map(|(c, _)| *c).collect();
        let p: Vec<f64> =
            report.fig3_send_cost_usd.iter().filter(|(_, bu)| !*bu).map(|(c, _)| *c).collect();
        eprintln!(
            "fig3 bundle n={} mean=${:.2} | priority n={} mean=${:.2}",
            b.len(),
            b.iter().sum::<f64>() / b.len().max(1) as f64,
            p.len(),
            p.iter().sum::<f64>() / p.len().max(1) as f64
        );
        let rt = &report.recv_tx_counts;
        eprintln!(
            "recv txs mean={:.1} min={:?} max={:?} | cost mean={:.2}c",
            rt.iter().sum::<usize>() as f64 / rt.len().max(1) as f64,
            rt.iter().min(),
            rt.iter().max(),
            report.recv_cost_cents.iter().sum::<f64>() / report.recv_cost_cents.len().max(1) as f64
        );
        let f6 = &report.fig6_block_intervals_min;
        let at_cutoff = f6.iter().filter(|v| **v >= 59.0).count() as f64 / f6.len().max(1) as f64;
        eprintln!(
            "fig6 n={} mean={:.1}min at_cutoff={:.2}",
            f6.len(),
            f6.iter().sum::<f64>() / f6.len().max(1) as f64,
            at_cutoff
        );
        eprintln!(
            "storage trie={}B peak={}B reclaimed={} state={}B deposit=${:.0}",
            report.storage.trie_bytes,
            report.storage.trie_peak_bytes,
            report.storage.sealed_reclaimed,
            report.storage.state_bytes,
            report.storage.deposit_usd
        );
    }
    eprintln!("table1 rows={} corr={:.3}", report.table1.len(), report.cost_latency_correlation);
    for row in &report.table1 {
        eprintln!(
            "  v{} sigs={} cost={:.2} med={:.1}s max={:.1}s",
            row.index, row.sigs, row.cost_cents, row.latency.median, row.latency.max
        );
    }
}
