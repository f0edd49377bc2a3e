//! Per-figure experiment aggregation (§V).
//!
//! One simulated deployment run yields every quantity in the paper's
//! evaluation; [`evaluate`] packages them per figure/table, and the `bench`
//! crate's `paper` binary renders them.

use host_sim::{lamports_to_cents, lamports_to_usd};
use relayer::JobKind;
use serde::Serialize;

use crate::config::TestnetConfig;
use crate::harness::Testnet;
use crate::metrics::{correlation, Summary};

/// One row of Table I.
#[derive(Clone, Debug, Serialize)]
pub struct ValidatorRow {
    /// Validator index (0-based; the paper's #1 is index 0).
    pub index: usize,
    /// Signatures submitted.
    pub sigs: usize,
    /// Cost per Sign transaction, in cents.
    pub cost_cents: f64,
    /// Block-to-signature latency summary, in seconds.
    pub latency: Summary,
}

/// Guest-chain storage accounting (§V-D).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StorageReport {
    /// Resident trie bytes at the end of the run.
    pub trie_bytes: usize,
    /// Peak resident trie bytes during the run.
    pub trie_peak_bytes: usize,
    /// Trie nodes reclaimed by sealing.
    pub sealed_reclaimed: usize,
    /// Full (serialized) contract state size, in bytes.
    pub state_bytes: usize,
    /// Rent-exemption deposit of the 10 MiB account, in USD.
    pub deposit_usd: f64,
}

/// Everything the evaluation section reports, from one run.
#[derive(Clone, Debug, Serialize)]
pub struct EvaluationReport {
    /// Simulated duration in days.
    pub duration_days: f64,
    /// Fig. 2 — SendPacket→FinalisedBlock delay per transfer, seconds.
    pub fig2_send_latency_s: Vec<f64>,
    /// Fig. 3 — cost of each send in USD, flagged by bundle usage.
    pub fig3_send_cost_usd: Vec<(f64, bool)>,
    /// Fig. 4 — light-client update first-to-last-transaction latency, s.
    pub fig4_update_latency_s: Vec<f64>,
    /// Fig. 4 — transactions per light-client update.
    pub fig4_update_tx_counts: Vec<usize>,
    /// Fig. 5 — light-client update total cost, cents.
    pub fig5_update_cost_cents: Vec<f64>,
    /// Fig. 6 — interval between consecutive guest blocks, minutes.
    pub fig6_block_intervals_min: Vec<f64>,
    /// Table I rows, ordered by signature count.
    pub table1: Vec<ValidatorRow>,
    /// §V-C — correlation between validator cost and median latency.
    pub cost_latency_correlation: f64,
    /// §V-A — transactions per inbound packet delivery.
    pub recv_tx_counts: Vec<usize>,
    /// §V-A — cost per inbound packet delivery, cents.
    pub recv_cost_cents: Vec<f64>,
    /// §V-D — storage accounting.
    pub storage: StorageReport,
    /// Transfers that completed (got a finalised block).
    pub completed_sends: usize,
    /// Transfers still in flight at the end of the run.
    pub in_flight_sends: usize,
}

/// Runs a deployment for `duration_ms` and aggregates the report.
pub fn evaluate(config: TestnetConfig, duration_ms: u64) -> EvaluationReport {
    let mut net = Testnet::build(config);
    net.run_for(duration_ms);
    report_of(&net, duration_ms)
}

/// Builds the report from an already-run testnet.
pub fn report_of(net: &Testnet, duration_ms: u64) -> EvaluationReport {
    // Fig. 2 / Fig. 3.
    let mut fig2 = Vec::new();
    let mut fig3 = Vec::new();
    let mut completed = 0;
    let mut in_flight = 0;
    for record in &net.send_records {
        match record.finalised_ms {
            Some(finalised) => {
                completed += 1;
                fig2.push((finalised - record.sent_ms) as f64 / 1_000.0);
            }
            None => in_flight += 1,
        }
        fig3.push((lamports_to_usd(record.fee_lamports), record.used_bundle));
    }

    // Fig. 4 / Fig. 5 from relayer client-update jobs.
    let mut fig4_latency = Vec::new();
    let mut fig4_txs = Vec::new();
    let mut fig5 = Vec::new();
    let mut recv_txs = Vec::new();
    let mut recv_cents = Vec::new();
    for record in net.relayer.records() {
        match record.kind {
            JobKind::ClientUpdate => {
                fig4_latency.push(record.span_ms() as f64 / 1_000.0);
                fig4_txs.push(record.tx_count);
                fig5.push(lamports_to_cents(record.fee_lamports));
            }
            JobKind::RecvPacket => {
                recv_txs.push(record.tx_count);
                recv_cents.push(lamports_to_cents(record.fee_lamports));
            }
            _ => {}
        }
    }

    // Fig. 6 — block intervals (skip the bootstrap blocks, whose cadence is
    // an artifact of the synchronous handshake).
    let contract = net.contract.borrow();
    let mut fig6 = Vec::new();
    let mut previous: Option<u64> = None;
    for height in 1..=contract.head_height() {
        let block = contract.block_at(height).expect("height within head");
        if block.timestamp_ms < 120_000 {
            continue;
        }
        if let Some(prev) = previous {
            fig6.push((block.timestamp_ms - prev) as f64 / 60_000.0);
        }
        previous = Some(block.timestamp_ms);
    }

    // Table I.
    let validator_count = net.sign_records.iter().map(|r| r.validator + 1).max().unwrap_or(0);
    let mut table1 = Vec::new();
    for index in 0..validator_count {
        let records: Vec<_> = net.sign_records.iter().filter(|r| r.validator == index).collect();
        if records.is_empty() {
            continue;
        }
        let latencies: Vec<f64> = records.iter().map(|r| r.latency_s()).collect();
        let cost_cents = lamports_to_cents(records[0].fee_lamports);
        table1.push(ValidatorRow {
            index,
            sigs: records.len(),
            cost_cents,
            latency: Summary::of(&latencies),
        });
    }
    table1.sort_by_key(|row| std::cmp::Reverse(row.sigs));
    // §V-C computes the correlation over individual (cost, latency)
    // observations; within-validator variance dominates, so r ≈ 0.
    let costs: Vec<f64> =
        net.sign_records.iter().map(|r| lamports_to_cents(r.fee_lamports)).collect();
    let latencies: Vec<f64> = net.sign_records.iter().map(|r| r.latency_s()).collect();
    let cost_latency_correlation = correlation(&costs, &latencies);

    let stats = contract.storage_stats();
    let storage = StorageReport {
        trie_bytes: stats.byte_count,
        trie_peak_bytes: stats.peak_bytes,
        sealed_reclaimed: stats.sealed_reclaimed,
        state_bytes: contract.state_size(),
        deposit_usd: host_sim::rent::deposit_usd(host_sim::MAX_ACCOUNT_SIZE),
    };

    EvaluationReport {
        duration_days: duration_ms as f64 / (24.0 * 3_600_000.0),
        fig2_send_latency_s: fig2,
        fig3_send_cost_usd: fig3,
        fig4_update_latency_s: fig4_latency,
        fig4_update_tx_counts: fig4_txs,
        fig5_update_cost_cents: fig5,
        fig6_block_intervals_min: fig6,
        table1,
        cost_latency_correlation,
        recv_tx_counts: recv_txs,
        recv_cost_cents: recv_cents,
        storage,
        completed_sends: completed,
        in_flight_sends: in_flight,
    }
}
