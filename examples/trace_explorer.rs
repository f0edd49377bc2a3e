//! Trace explorer: boot a small deployment, let a few transfers flow, and
//! pretty-print one packet's complete lifecycle as telemetry saw it —
//! `send_packet`, the chunked light-client update spans that carried its
//! finality proof, delivery on the counterparty, and the acknowledgement.
//! Then boot a three-chain mesh and render a multi-hop route the same way:
//! one linked lifecycle spanning every leg.
//!
//! With `--alerts`, a mid-run validator outage is injected and the online
//! monitor's firing/resolved alert transitions are woven inline into the
//! affected packet's timeline.
//!
//! With `--busiest N`, the N highest-latency packet lifecycles are listed
//! as a table before the detailed walk — the quick way to find where a
//! heavy-traffic run spent its time.
//!
//! With `--profile <BENCH_profile.json>`, the explorer instead loads a
//! [`ProfileReport`] written by `cargo run -p bench --bin profile` and
//! renders its hot-path table and phase tree: where the *simulator's own
//! wall clock* went, as opposed to where the simulated packets' time went.
//!
//! With `--apps`, a second mesh runs with the full application stacks
//! engaged — ICS-29 fees on the transfer stack, an NFT route across all
//! three chains — and the explorer renders the NFT route's linked
//! lifecycle plus each chain's per-application stack counters and the
//! mesh-wide fee flow.
//!
//! With `--attribution`, the run's completed lifecycles are stitched
//! into causal graphs and the critical-path latency attribution tables
//! are rendered (per-stage, per-link, per-app), plus the slowest
//! packet's causal graph with its critical path marked.
//!
//! With `--postmortem`, a post-mortem bundle is collected from the run —
//! one trigger per invariant violation or firing alert, each with the
//! implicated packets' causal graphs, the journal tail and the relevant
//! metric families. Pair it with `--alerts` to have something to
//! collect; a healthy run reports zero triggers.
//!
//! ```text
//! cargo run --release --example trace_explorer -- \
//!     [--seed N] [--days N] [--alerts] [--busiest N] [--apps] \
//!     [--attribution] [--postmortem] \
//!     [--profile <BENCH_profile.json>]
//! ```

use be_my_guest::apps::PacketFee;
use be_my_guest::ibc_core::types::PortId;
use be_my_guest::mesh::{ica_port, nft_port, Mesh, MeshConfig, PathPolicy};
use be_my_guest::profiler::ProfileReport;
use be_my_guest::telemetry::{
    render_packet_trace_with_alerts, render_route_trace_with_alerts, AttributionReport,
    CausalGraph, Flags, PostmortemBundle, POSTMORTEM_TAIL,
};
use be_my_guest::testnet::{ChaosPlan, Fault, Testnet, TestnetConfig};

const HOUR_MS: u64 = 60 * 60 * 1_000;
const DAY_MS: u64 = 24 * HOUR_MS;

fn main() {
    let mut flags = Flags::from_env();
    let seed = flags.value("--seed", 2026u64);
    let days = flags.value("--days", 1u64);
    let with_alerts = flags.switch("--alerts");
    let busiest = flags.value("--busiest", 0usize);
    let with_apps = flags.switch("--apps");
    let with_attribution = flags.switch("--attribution");
    let with_postmortem = flags.switch("--postmortem");
    let profile_path: Option<String> = flags.optional("--profile");
    flags.finish();
    let days = days.clamp(1, 30);

    // Profile mode: instead of running a deployment, explain where the
    // simulator's own wall clock went in a report the `profile` bench
    // wrote (`cargo run --release -p bench --bin profile -- \
    //   --profile-json BENCH_profile.json`).
    if let Some(path) = profile_path {
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            eprintln!("could not read {path}: {err}");
            std::process::exit(1);
        });
        let report = ProfileReport::from_json(&raw).unwrap_or_else(|err| {
            eprintln!("{path} is not a profile report: {err}");
            std::process::exit(1);
        });
        println!(
            "self-profile from {path}: {:.1} s profiled wall across {} phase(s)",
            report.total_ms / 1_000.0,
            report.entries.len(),
        );
        println!("\nhot paths (self time, top 15):");
        println!("{}", report.render_table(15));
        println!("phase tree:");
        println!("{}", report.render_tree());
        return;
    }

    // Light traffic so individual packets are easy to follow.
    let mut config = TestnetConfig::small(seed);
    config.workload.outbound_mean_gap_ms = 3 * 60 * 1_000;
    config.workload.inbound_mean_gap_ms = 5 * 60 * 1_000;
    if with_alerts {
        // Crash two of the four equal-stake validators for four hours:
        // quorum drops below 2/3, guest finality halts, and the monitor's
        // staleness and stuck-packet detectors walk their alert lifecycle
        // while packets wait out the outage.
        let outage = (4 * HOUR_MS, 8 * HOUR_MS);
        config.chaos = ChaosPlan::new(seed)
            .with(outage.0, outage.1, Fault::ValidatorCrash { validator: 0 })
            .with(outage.0, outage.1, Fault::ValidatorCrash { validator: 1 });
    }
    let mut net = Testnet::build(config);
    net.run_for(days * DAY_MS);

    let report = net.run_report("trace-explorer");
    println!("{}", report.render_text());

    // Critical-path attribution: where the simulated packets' time went,
    // stitched from the causal graphs of every completed lifecycle.
    if with_attribution {
        let attribution = AttributionReport::from_report(&report);
        println!("{}", attribution.render_text());
        if let Some(packet) = report.slowest_packet() {
            println!("slowest packet's causal graph (critical path marked *):");
            println!("{}", CausalGraph::from_packet(packet).render_text());
        }
    }

    // Post-mortem bundles: one per invariant violation or firing alert,
    // with the implicated causal graphs, journal tail and metric families.
    if with_postmortem {
        let bundle =
            PostmortemBundle::collect(&report, &net.telemetry().journal_jsonl(), POSTMORTEM_TAIL);
        println!("{}", bundle.render_text());
        if bundle.triggers.is_empty() && !with_alerts {
            println!("(healthy run, nothing to collect — try --postmortem with --alerts)");
        }
    }

    // The N packets that spent the longest between their first and last
    // recorded event — where a heavy run's latency actually lives.
    if busiest > 0 {
        let mut ranked: Vec<_> = report.packets.iter().collect();
        ranked.sort_by_key(|p| (std::cmp::Reverse(p.last_ms - p.first_ms), p.trace));
        println!("busiest {} packet(s) by lifecycle latency:", busiest.min(ranked.len()));
        println!(
            "  {:<6} {:>24} {:>12} {:>12} {:>11} {:>9}",
            "trace", "packet", "first ms", "last ms", "latency ms", "complete"
        );
        for packet in ranked.into_iter().take(busiest) {
            println!(
                "  {:<6} {:>24} {:>12} {:>12} {:>11} {:>9}",
                packet.trace,
                format!("{}/{}#{}", packet.origin, packet.channel, packet.sequence),
                packet.first_ms,
                packet.last_ms,
                packet.last_ms - packet.first_ms,
                if packet.completed { "yes" } else { "no" },
            );
        }
        println!();
    }

    // Walk one packet's lifecycle end to end: every event the journal
    // recorded for it plus every relayer job span linked to it. With
    // --alerts, prefer a packet implicated by a firing alert — the one the
    // outage actually stalled — and weave the transitions into its
    // timeline; otherwise take the slowest.
    let implicated = report
        .alerts
        .iter()
        .filter(|a| a.state == "firing")
        .flat_map(|a| a.linked_traces.iter())
        .find_map(|t| report.packets.iter().find(|p| p.trace == *t));
    let Some(packet) = implicated.or_else(|| report.slowest_packet()) else {
        eprintln!("no packets completed — run longer or lower the workload gaps");
        std::process::exit(1);
    };
    if implicated.is_some() {
        println!("packet implicated by a firing alert, end to end:");
    } else {
        println!("slowest packet, end to end:");
    }
    println!("{}", render_packet_trace_with_alerts(packet, &report.alerts));

    // The same trace is addressable by (origin, channel, sequence) — the
    // identity a packet keeps across both chains and the relayer.
    let by_key = report
        .packet(&packet.origin, &packet.channel, packet.sequence)
        .expect("the chosen packet is indexed by origin, channel and sequence");
    assert_eq!(by_key.trace, packet.trace);
    println!(
        "(looked up again as {}/{}#{} → trace {})",
        by_key.origin, by_key.channel, by_key.sequence, by_key.trace
    );

    // Now the multi-hop view: a chain-a → chain-b → chain-c transfer over
    // a 3-chain line mesh. The route trace links every leg's packet trace,
    // so the rendering shows one timeline across all three chains.
    let mut mesh = Mesh::build(MeshConfig::line(3, seed)).expect("3-chain line builds");
    mesh.mint("chain-a", "alice", "tok-a", 1_000).expect("chain-a exists");
    let route = mesh
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
    mesh.run_until_settled(route, 60 * 60 * 1_000);
    mesh.run_for(10 * 60 * 1_000); // drain the ack tail

    let mesh_report = mesh.run_report("trace-explorer-mesh");
    let label = &mesh.routes()[route].label;
    let summary = mesh_report.routes.iter().find(|r| &r.label == label).expect("route trace");
    println!("\nmulti-hop route, end to end:");
    println!("{}", render_route_trace_with_alerts(summary, &mesh_report.alerts));

    // The stacked-application view: the same 3-chain line, but with the
    // fee middleware charging every transfer hop and an ICS-721 NFT
    // riding a 2-hop route through its own application stack.
    if with_apps {
        let mut config = MeshConfig::line(3, seed);
        config.packet_fee = Some(PacketFee::flat(5, 3, 2));
        let mut anet = Mesh::build(config).expect("3-chain line builds");
        anet.mint("chain-a", "alice", "tok-a", 1_000).expect("chain-a exists");
        anet.mint_nft("chain-a", "art", "mona-lisa", "alice").expect("chain-a exists");
        anet.ica_register_on("chain-a", "chain-b", "alice").expect("direct ica link");
        let fungible = anet
            .send_along_route(
                "chain-a",
                "chain-c",
                "alice",
                "carol",
                "tok-a",
                250,
                &PathPolicy::FewestHops,
            )
            .expect("the 2-hop transfer resolves");
        let tokens = vec!["mona-lisa".to_string()];
        let nft_route = anet
            .send_nft_along_route(
                "chain-a",
                "chain-c",
                "alice",
                "carol",
                "art",
                &tokens,
                &PathPolicy::FewestHops,
            )
            .expect("the 2-hop NFT route resolves");
        anet.run_until_settled(fungible, 60 * 60 * 1_000);
        anet.run_until_settled(nft_route, 60 * 60 * 1_000);
        anet.run_for(10 * 60 * 1_000); // drain the ack tail

        let apps_report = anet.run_report("trace-explorer-apps");
        let label = &anet.routes()[nft_route].label;
        let summary = apps_report.routes.iter().find(|r| &r.label == label).expect("route trace");
        println!("\nNFT route through the stacked applications, end to end:");
        println!("{}", render_route_trace_with_alerts(summary, &apps_report.alerts));

        println!("per-application stack counters (received/errors/acked/timed out):");
        let ports: [(&str, PortId); 3] =
            [("transfer", PortId::transfer()), ("nft", nft_port()), ("ica", ica_port())];
        for node in anet.nodes() {
            for (app, port) in &ports {
                let stack = node.stack_on(port);
                let c = stack.counters();
                println!(
                    "  {:<9} {:<9} [{}] {:>3} recv {:>3} err {:>3} ack {:>3} timeout",
                    node.name,
                    app,
                    stack.layer_names().join(" > "),
                    c.received,
                    c.recv_errors,
                    c.acked,
                    c.timed_out,
                );
            }
        }

        let totals = anet.fee_totals();
        println!(
            "\nICS-29 fee flow: {} escrowed = {} paid + {} refunded + {} pending (imbalance {})",
            totals.escrowed,
            totals.paid,
            totals.refunded,
            totals.pending,
            anet.fee_imbalance(),
        );
        assert_eq!(anet.fee_imbalance(), 0);
        assert_eq!(anet.nft_supply_drift(), 0);
        println!("NFT supply drift: {} (every voucher is escrow-backed)", anet.nft_supply_drift());
    }
}
