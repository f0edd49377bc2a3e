//! Observability-pipeline regressions at the harness level: the
//! wall-clock self-profiler must stay a pure observer, and
//! [`TelemetryMode::Disabled`] must record nothing.

use relayer::JobKind;
use testnet::{ChaosPlan, Fault, TelemetryMode, Testnet, TestnetConfig, DAY_MS, HOUR_MS};
use workload::TrafficConfig;

/// A few busy simulated hours with a mid-run validator outage, so the
/// monitor battery has something to alert on and timeouts strand some
/// packets.
fn stormy_config(seed: u64, telemetry: TelemetryMode) -> TestnetConfig {
    let mut config = TestnetConfig::small(seed);
    config.traffic = Some(TrafficConfig::airdrop_storm(200, 30_000));
    config.telemetry = telemetry;
    config.chaos = ChaosPlan::new(seed)
        .with(HOUR_MS, HOUR_MS + 30 * 60 * 1_000, Fault::ValidatorCrash { validator: 0 })
        .with(HOUR_MS, HOUR_MS + 30 * 60 * 1_000, Fault::ValidatorCrash { validator: 1 });
    config
}

fn stormy_run(seed: u64, telemetry: TelemetryMode) -> Testnet {
    let mut net = Testnet::build(stormy_config(seed, telemetry));
    net.run_heavy_for(2 * HOUR_MS);
    net
}

/// The full observable output of a run: raw journal plus the aggregated,
/// serialised report.
fn fingerprint(net: &Testnet) -> String {
    let mut out = net.telemetry().journal_jsonl();
    out.push_str(&net.run_report("observability").to_json());
    out
}

/// The profiler observes wall time without touching simulation state: a
/// profiled run's telemetry is byte-identical to a bare same-seed run's,
/// while its profile tree actually attributes the step loop.
#[test]
fn profiler_is_a_pure_observer() {
    let bare = std::thread::spawn(|| {
        let net = stormy_run(5, TelemetryMode::Full);
        fingerprint(&net)
    });
    let mut config = stormy_config(5, TelemetryMode::Full);
    config.profile = true;
    let mut profiled = Testnet::build(config);
    profiled.run_heavy_for(2 * HOUR_MS);

    assert_eq!(
        fingerprint(&profiled),
        bare.join().expect("bare run panicked"),
        "profiling perturbed the simulation — wall clock leaked into sim state"
    );

    let report = profiled.profile_report();
    let step = report.entry("step").expect("the harness step phase is profiled");
    assert!(step.calls > 0);
    assert!(step.wall_ms - step.self_ms > 0.0, "no step time was attributed to named child phases");
    assert!(report.entry("step;host.block").is_some(), "host block production is profiled");
    assert!(report.entry("step;relayer.tick").is_some(), "relayer ticks are profiled");
}

/// The counterparty signs a header when it is first read, and on the
/// paper's quiet link the only reader is the relayer building a client
/// update: a day of keep-alive blocks must cost a signing per update
/// relayed (plus the handshake's), not one per block.
#[test]
fn keep_alive_blocks_nobody_relays_are_never_signed() {
    fn sign_calls(net: &Testnet) -> u64 {
        let report = net.profile_report();
        report.entries.iter().filter(|e| e.name == "cp.sign").map(|e| e.calls).sum()
    }
    let mut config = TestnetConfig::paper();
    config.profile = true;
    let mut net = Testnet::build(config);
    let handshake = sign_calls(&net);
    net.run_for(DAY_MS);

    let signed = sign_calls(&net);
    let blocks = net.cp.height();
    let updates = net.relayer.records().iter().filter(|r| r.kind == JobKind::ClientUpdate).count()
        + usize::from(net.relayer.job_in_flight());
    assert!(blocks > 1_000, "a keep-alive a minute: {blocks} blocks");
    assert!(updates > 0 && signed > handshake, "the run relayed something");
    assert!(
        signed - handshake <= updates as u64,
        "{signed} headers signed for {handshake} handshake reads and {updates} client updates"
    );
    assert!(signed * 20 < blocks, "{signed} of {blocks} blocks signed");
}

/// Disabled telemetry is a strict no-op sink — and the profiler stays
/// off unless asked for, so the default configuration pays neither cost.
#[test]
fn disabled_telemetry_records_nothing() {
    let net = stormy_run(3, TelemetryMode::Disabled);
    assert!(net.telemetry().journal_jsonl().is_empty());
    assert!(!net.profiler().is_enabled());
    assert!(net.profile_report().entries.is_empty());
}
