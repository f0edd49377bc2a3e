//! Latency attribution: aggregates the per-packet causal graphs of a run
//! into per-stage, per-link and per-application wall-clock attribution
//! tables (p50/p95/max plus share of end-to-end), with a collapsed-stack
//! renderer compatible with the self-profiler's flamegraph text format.
//!
//! Everything here is a pure function of a [`RunReport`]: integer
//! millisecond arithmetic, deterministic ordering, no wall clock — so
//! same-seed runs produce byte-identical attribution artifacts, and
//! computing the attribution can never perturb the run it describes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::graph::{stages, CausalGraph};
use crate::metrics::nearest_rank;
use crate::report::{PacketTraceReport, RunReport};

/// Exact `q`-quantile of a sorted `u64` sample (nearest-rank method).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = nearest_rank(q, sorted.len() as u64) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Attribution of one latency stage across every completed packet.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Canonical stage name (see [`stages`]).
    pub stage: String,
    /// Packets on whose critical path the stage appeared (nonzero time),
    /// except `app_dispatch`, which counts dispatch events.
    pub packets: u64,
    /// Total critical-path time attributed to the stage, ms.
    pub total_ms: u64,
    /// Median per-packet stage time (over packets where it appeared), ms.
    pub p50_ms: u64,
    /// 95th-percentile per-packet stage time, ms.
    pub p95_ms: u64,
    /// Largest per-packet stage time, ms.
    pub max_ms: u64,
    /// Share of the summed end-to-end time, percent.
    pub share_pct: f64,
}

/// End-to-end latency statistics of one group (a link or an app).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupStat {
    /// Group key: `origin/channel` for links, the app name for apps.
    pub key: String,
    /// Completed packets in the group.
    pub packets: u64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// Median end-to-end latency, ms.
    pub p50_ms: u64,
    /// 95th-percentile end-to-end latency, ms.
    pub p95_ms: u64,
    /// Largest end-to-end latency, ms.
    pub max_ms: u64,
    /// The group's dominant stage (largest total attributed time).
    pub dominant_stage: String,
}

/// Latency attribution of one run: per-stage, per-link and per-app
/// tables over every *completed* packet lifecycle (ack or timeout seen).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Scenario label, copied from the run report.
    pub scenario: String,
    /// Simulation seed, copied from the run report.
    pub seed: u64,
    /// Packet lifecycles examined.
    pub packets: u64,
    /// Lifecycles that completed (and were attributed).
    pub completed: u64,
    /// Completed lifecycles that timed out.
    pub timed_out: u64,
    /// Mean end-to-end latency over completed lifecycles, ms.
    pub mean_end_to_end_ms: f64,
    /// Summed end-to-end time over completed lifecycles, ms.
    pub total_end_to_end_ms: u64,
    /// Per-stage attribution, in canonical stage order.
    pub stages: Vec<StageStat>,
    /// Per-link (`origin/channel`) end-to-end statistics.
    pub links: Vec<GroupStat>,
    /// Per-application end-to-end statistics (`transfer`/`nft`/`ica`).
    pub apps: Vec<GroupStat>,
}

/// Classifies a packet into its application by the `src_port` field its
/// lifecycle events carry (single-link testnet packets predate ports and
/// are ICS-20 transfers by construction).
fn classify_app(packet: &PacketTraceReport) -> String {
    packet
        .events
        .iter()
        .find_map(|e| e.fields.get("src_port"))
        .map(|port| port.to_string())
        .unwrap_or_else(|| "transfer".to_string())
}

impl AttributionReport {
    /// Builds the attribution tables from a run report. Only completed
    /// lifecycles are attributed; in-flight packets are counted but
    /// contribute no stage time (their end state is unknowable).
    pub fn from_report(report: &RunReport) -> Self {
        let graphs: Vec<(CausalGraph, String)> =
            report.packets.iter().map(|p| (CausalGraph::from_packet(p), classify_app(p))).collect();

        let mut stage_samples: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        let mut app_dispatches = 0u64;
        let mut e2e: Vec<u64> = Vec::new();
        let mut total_e2e = 0u64;
        let mut timed_out = 0u64;
        let mut by_link: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_app: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut completed_idx: Vec<usize> = Vec::new();

        for (index, (graph, app)) in graphs.iter().enumerate() {
            if !graph.completed {
                continue;
            }
            completed_idx.push(index);
            e2e.push(graph.end_to_end_ms());
            total_e2e += graph.end_to_end_ms();
            timed_out += u64::from(graph.timed_out);
            app_dispatches += graph.app_dispatches;
            for stage in stages::ALL {
                let ms = graph.stage_ms(stage);
                if ms > 0 {
                    stage_samples.entry(stage).or_default().push(ms);
                }
            }
            by_link.entry(format!("{}/{}", graph.origin, graph.channel)).or_default().push(index);
            by_app.entry(app.clone()).or_default().push(index);
        }

        let mut stage_stats = Vec::new();
        for stage in stages::ALL {
            let mut samples = stage_samples.remove(stage).unwrap_or_default();
            samples.sort_unstable();
            let total: u64 = samples.iter().sum();
            let packets =
                if stage == stages::APP_DISPATCH { app_dispatches } else { samples.len() as u64 };
            if packets == 0 && total == 0 {
                continue;
            }
            stage_stats.push(StageStat {
                stage: stage.to_string(),
                packets,
                total_ms: total,
                p50_ms: quantile(&samples, 0.50),
                p95_ms: quantile(&samples, 0.95),
                max_ms: samples.last().copied().unwrap_or(0),
                share_pct: if total_e2e == 0 {
                    0.0
                } else {
                    total as f64 / total_e2e as f64 * 100.0
                },
            });
        }

        let group = |members: &[usize], key: &str| -> GroupStat {
            let mut latencies: Vec<u64> =
                members.iter().map(|i| graphs[*i].0.end_to_end_ms()).collect();
            latencies.sort_unstable();
            let sum: u64 = latencies.iter().sum();
            let mut stage_totals: BTreeMap<&str, u64> = BTreeMap::new();
            for index in members {
                for stage in stages::ALL {
                    let ms = graphs[*index].0.stage_ms(stage);
                    if ms > 0 {
                        *stage_totals.entry(stage).or_default() += ms;
                    }
                }
            }
            let dominant = stage_totals
                .iter()
                .max_by_key(|(stage, total)| (**total, std::cmp::Reverse(**stage)))
                .map(|(stage, _)| (*stage).to_string())
                .unwrap_or_else(|| stages::UNATTRIBUTED.to_string());
            GroupStat {
                key: key.to_string(),
                packets: members.len() as u64,
                mean_ms: if latencies.is_empty() {
                    0.0
                } else {
                    sum as f64 / latencies.len() as f64
                },
                p50_ms: quantile(&latencies, 0.50),
                p95_ms: quantile(&latencies, 0.95),
                max_ms: latencies.last().copied().unwrap_or(0),
                dominant_stage: dominant,
            }
        };
        let links: Vec<GroupStat> =
            by_link.iter().map(|(key, members)| group(members.as_slice(), key)).collect();
        let apps: Vec<GroupStat> =
            by_app.iter().map(|(key, members)| group(members.as_slice(), key)).collect();

        let completed = completed_idx.len() as u64;
        AttributionReport {
            scenario: report.meta.scenario.clone(),
            seed: report.meta.seed,
            packets: graphs.len() as u64,
            completed,
            timed_out,
            mean_end_to_end_ms: if completed == 0 {
                0.0
            } else {
                total_e2e as f64 / completed as f64
            },
            total_end_to_end_ms: total_e2e,
            stages: stage_stats,
            links,
            apps,
        }
    }

    /// Sum of every stage's share, percent — ~100 by construction (the
    /// critical path partitions each packet's end-to-end interval; only
    /// f64 rounding can move it).
    pub fn share_sum_pct(&self) -> f64 {
        self.stages.iter().map(|s| s.share_pct).sum()
    }

    /// Share of the summed end-to-end time the *named* stages explain —
    /// everything except `unattributed`, percent.
    pub fn coverage_pct(&self) -> f64 {
        self.stages.iter().filter(|s| s.stage != stages::UNATTRIBUTED).map(|s| s.share_pct).sum()
    }

    /// The stage with the largest total attributed time.
    pub fn dominant_stage(&self) -> Option<&StageStat> {
        self.stages.iter().max_by_key(|s| (s.total_ms, std::cmp::Reverse(s.stage.as_str())))
    }

    /// Per-stage statistics by name.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Per-app statistics by name.
    pub fn app(&self, name: &str) -> Option<&GroupStat> {
        self.apps.iter().find(|a| a.key == name)
    }

    /// Collapsed-stack lines in the self-profiler's flamegraph text
    /// format (`a;b;c <integer micros>`): one line per `(app, stage)`
    /// pair, value = total attributed time in integer microseconds of
    /// *simulated* wall. Paths are rooted at `attribution` so the lines
    /// can be concatenated with self-profiler output without colliding.
    pub fn collapsed_stacks(&self, report: &RunReport) -> String {
        let mut totals: BTreeMap<(String, String), u64> = BTreeMap::new();
        for packet in &report.packets {
            let graph = CausalGraph::from_packet(packet);
            if !graph.completed {
                continue;
            }
            let app = classify_app(packet);
            for stage in stages::ALL {
                let ms = graph.stage_ms(stage);
                if ms > 0 {
                    *totals.entry((app.clone(), stage.to_string())).or_default() += ms;
                }
            }
        }
        let mut out = String::new();
        for ((app, stage), ms) in &totals {
            out.push_str(&format!("attribution;{app};{stage} {}\n", ms * 1_000));
        }
        out
    }

    /// Serializes as pretty JSON (deterministic key order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("attribution report serializes")
    }

    /// Renders the attribution tables as text (the `trace_explorer
    /// --attribution` view).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "latency attribution — scenario {} (seed {}): {} packets, {} completed \
             ({} timed out), mean end-to-end {:.1} s\n",
            self.scenario,
            self.seed,
            self.packets,
            self.completed,
            self.timed_out,
            self.mean_end_to_end_ms / 1_000.0,
        ));
        out.push_str(&format!(
            "  stage coverage: {:.1}% named, {:.1}% total\n",
            self.coverage_pct(),
            self.share_sum_pct(),
        ));
        out.push_str(&format!(
            "  {:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>7}\n",
            "stage", "packets", "total s", "p50 s", "p95 s", "max s", "share"
        ));
        for stage in &self.stages {
            out.push_str(&format!(
                "  {:<14} {:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%\n",
                stage.stage,
                stage.packets,
                stage.total_ms as f64 / 1_000.0,
                stage.p50_ms as f64 / 1_000.0,
                stage.p95_ms as f64 / 1_000.0,
                stage.max_ms as f64 / 1_000.0,
                stage.share_pct,
            ));
        }
        for (title, groups) in [("per-link", &self.links), ("per-app", &self.apps)] {
            if groups.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "  {title} end-to-end:\n  {:<24} {:>8} {:>10} {:>10} {:>10}  dominant stage\n",
                "", "packets", "p50 s", "p95 s", "max s"
            ));
            for g in groups.iter() {
                out.push_str(&format!(
                    "    {:<22} {:>8} {:>10.1} {:>10.1} {:>10.1}  {}\n",
                    g.key,
                    g.packets,
                    g.p50_ms as f64 / 1_000.0,
                    g.p95_ms as f64 / 1_000.0,
                    g.max_ms as f64 / 1_000.0,
                    g.dominant_stage,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::Telemetry;

    /// Drives two app-tagged lifecycles and one timeout through a sink.
    fn seeded_report() -> RunReport {
        let telemetry = Telemetry::recording();
        let fast = telemetry.trace_for_packet("guest", "channel-0", 1).unwrap();
        telemetry.event(0, names::PACKET_SEND, &[fast], &[("src_port", "transfer".into())]);
        telemetry.event(4_000, names::PACKET_RECV, &[fast], &[]);
        telemetry.event(4_000, names::PACKET_ACK_WRITTEN, &[fast], &[]);
        telemetry.event(6_000, names::PACKET_ACK, &[fast], &[]);

        let slow = telemetry.trace_for_packet("guest", "channel-0", 2).unwrap();
        telemetry.event(0, names::PACKET_SEND, &[slow], &[("src_port", "nft".into())]);
        let span = telemetry.span_start(2_000, "relayer.job.recv_packet", &[slow]).unwrap();
        telemetry.span_end(10_000, span);
        telemetry.event(10_000, names::PACKET_RECV, &[slow], &[]);
        telemetry.event(10_000, names::PACKET_ACK_WRITTEN, &[slow], &[]);
        telemetry.event(14_000, names::PACKET_ACK, &[slow], &[]);

        let stuck = telemetry.trace_for_packet("guest", "channel-0", 3).unwrap();
        telemetry.event(0, names::PACKET_SEND, &[stuck], &[]);
        telemetry.event(60_000, names::PACKET_TIMEOUT, &[stuck], &[]);

        let open = telemetry.trace_for_packet("guest", "channel-0", 4).unwrap();
        telemetry.event(0, names::PACKET_SEND, &[open], &[]);

        telemetry.run_report("attribution-test", 7, 60_000)
    }

    #[test]
    fn shares_sum_to_one_hundred_percent() {
        let attribution = AttributionReport::from_report(&seeded_report());
        assert_eq!(attribution.packets, 4);
        assert_eq!(attribution.completed, 3);
        assert_eq!(attribution.timed_out, 1);
        assert!((attribution.share_sum_pct() - 100.0).abs() < 1e-6);
        assert!(attribution.coverage_pct() > 95.0, "named stages explain the run");
        // 6_000 + 14_000 + 60_000 over three completed lifecycles.
        assert_eq!(attribution.total_end_to_end_ms, 80_000);
        assert!((attribution.mean_end_to_end_ms - 80_000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_app_and_per_link_groups_classify_packets() {
        let attribution = AttributionReport::from_report(&seeded_report());
        let transfer = attribution.app("transfer").expect("untagged packets are transfers");
        assert_eq!(transfer.packets, 2, "tagged transfer + untagged timeout");
        let nft = attribution.app("nft").expect("src_port tag classifies");
        assert_eq!(nft.packets, 1);
        assert_eq!(nft.p50_ms, 14_000);
        assert_eq!(attribution.links.len(), 1);
        assert_eq!(attribution.links[0].key, "guest/channel-0");
        assert_eq!(attribution.links[0].packets, 3);
        assert_eq!(attribution.links[0].max_ms, 60_000);
    }

    #[test]
    fn collapsed_stacks_match_the_profiler_format() {
        let report = seeded_report();
        let attribution = AttributionReport::from_report(&report);
        let stacks = attribution.collapsed_stacks(&report);
        assert!(!stacks.is_empty());
        for line in stacks.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path <micros>");
            assert!(path.starts_with("attribution;"));
            assert_eq!(path.split(';').count(), 3);
            value.parse::<u64>().expect("integer micros");
        }
        assert!(stacks.contains("attribution;nft;relay_recv 8000000\n"));
    }

    #[test]
    fn attribution_is_deterministic() {
        let a = AttributionReport::from_report(&seeded_report());
        let b = AttributionReport::from_report(&seeded_report());
        assert_eq!(a.to_json(), b.to_json());
        let back: AttributionReport = serde_json::from_str(&a.to_json()).unwrap();
        assert_eq!(back, a);
        let text = a.render_text();
        assert!(text.contains("relay_recv"));
        assert!(text.contains("per-app"));
    }
}
