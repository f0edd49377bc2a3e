//! §V-A (receiving a packet) — `ReceivePacket` took 4–5 Solana
//! transactions; 98.2 % of deliveries cost 0.4 ¢ and the rest 0.5 ¢, all
//! landing in a single Solana block (no added latency).
//!
//! Usage: `cargo run --release -p bench --bin recv_packet_cost -- [--days N] [--quiet] [--json <path>]`

use bench::{paper_report, RunOptions};
use testnet::Artifact;

fn main() {
    let options = RunOptions::from_args();
    let report = paper_report(&options);

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

    artifact.emit(options.output.quiet, options.output.json.as_deref());
}
