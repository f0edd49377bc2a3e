//! Runs one simulated day of the paper-configuration deployment and prints
//! its wall-clock time. The paper's figures come from `bench --bin paper`.
//!
//! ```text
//! cargo run --release -p testnet --example paper_timing -- --run-report report.json
//! ```
//!
//! `--run-report <path>` additionally writes the telemetry
//! [`testnet::RunReport`] of the run as JSON (ci.sh gates on it).

use telemetry::Flags;
use testnet::{Testnet, TestnetConfig, DAY_MS};

fn main() {
    let mut flags = Flags::from_env();
    let run_report_path: Option<String> = flags.optional("--run-report");
    flags.finish();
    let start = std::time::Instant::now();
    let mut net = Testnet::build(TestnetConfig::paper());
    net.run_for(DAY_MS);
    eprintln!("wall: {:?}", start.elapsed());
    if let Some(path) = run_report_path {
        let run_report = net.run_report("paper-timing");
        std::fs::write(&path, run_report.to_json()).expect("run report written");
        eprintln!("run report: {path} ({} packets)", run_report.packets.len());
    }
}
