//! Path selection over the mesh graph.
//!
//! The routing table is a static view of the topology (rebuilt only when
//! links open or close); [`RoutingTable::route`] answers "which hops carry
//! a transfer from A to Z" under a [`PathPolicy`]. Selection is a
//! deterministic Dijkstra: ties break on fewer hops, then on lower node
//! index, so the same topology always yields the same route — a
//! requirement for replayable runs.

/// How to choose among candidate paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathPolicy {
    /// Minimise hop count.
    FewestHops,
    /// Minimise summed per-message relay fees (ties: fewest hops).
    CheapestFees,
    /// Fewest hops among paths that do not *transit* the named chains
    /// (they may still be endpoints).
    Avoid(Vec<String>),
}

/// One hop of a selected route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteHop {
    /// Edge (= link) index in the table.
    pub edge: usize,
    /// Node the hop leaves.
    pub from: usize,
    /// Node the hop enters.
    pub to: usize,
}

/// An undirected edge with a per-message fee weight.
#[derive(Clone, Copy, Debug)]
struct Edge {
    a: usize,
    b: usize,
    fee: u64,
}

/// The mesh graph, ready to answer route queries.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    nodes: Vec<String>,
    edges: Vec<Edge>,
}

impl RoutingTable {
    /// A table over the named nodes, with no edges yet.
    pub fn new(nodes: Vec<String>) -> Self {
        Self { nodes, edges: Vec::new() }
    }

    /// Adds an undirected edge; returns its index.
    pub fn add_edge(&mut self, a: usize, b: usize, fee: u64) -> usize {
        self.edges.push(Edge { a, b, fee });
        self.edges.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the named node.
    fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n == name)
    }

    /// The cheapest/shortest path from `from` to `to` under `policy`, as
    /// a hop list; `None` when unreachable (or an endpoint is unknown).
    /// An empty hop list means `from == to`.
    pub fn route(&self, from: &str, to: &str, policy: &PathPolicy) -> Option<Vec<RouteHop>> {
        let src = self.node_index(from)?;
        let dst = self.node_index(to)?;
        let avoided: Vec<usize> = match policy {
            PathPolicy::Avoid(names) => names.iter().filter_map(|n| self.node_index(n)).collect(),
            _ => Vec::new(),
        };

        // Deterministic Dijkstra on (cost, hops): linear-scan extraction
        // keeps tie-breaks stable without a heap. Graphs here are tiny.
        let n = self.nodes.len();
        let mut best: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut prev: Vec<Option<RouteHop>> = vec![None; n];
        let mut done = vec![false; n];
        best[src] = Some((0, 0));
        loop {
            let mut current: Option<usize> = None;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                if let Some(score) = best[i] {
                    let better = match current {
                        None => true,
                        Some(c) => score < best[c].expect("scored"),
                    };
                    if better {
                        current = Some(i);
                    }
                }
            }
            let Some(u) = current else { break };
            if u == dst {
                break;
            }
            done[u] = true;
            let (cost_u, hops_u) = best[u].expect("extracted nodes are scored");
            for (index, edge) in self.edges.iter().enumerate() {
                let v = if edge.a == u {
                    edge.b
                } else if edge.b == u {
                    edge.a
                } else {
                    continue;
                };
                // An avoided chain may terminate a route but not carry
                // traffic through: relaxing into it is allowed only when
                // it is the destination.
                if v != dst && avoided.contains(&v) {
                    continue;
                }
                let weight = match policy {
                    PathPolicy::CheapestFees => edge.fee,
                    PathPolicy::FewestHops | PathPolicy::Avoid(_) => 0,
                };
                let candidate = (cost_u.saturating_add(weight), hops_u + 1);
                if best[v].is_none_or(|b| candidate < b) {
                    best[v] = Some(candidate);
                    prev[v] = Some(RouteHop { edge: index, from: u, to: v });
                }
            }
        }

        best[dst]?;
        let mut hops = Vec::new();
        let mut cursor = dst;
        while cursor != src {
            let hop = prev[cursor].expect("reached nodes have a predecessor");
            hops.push(hop);
            cursor = hop.from;
        }
        hops.reverse();
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// chain-a —(1)— chain-b —(1)— chain-c, plus a direct a—c edge with
    /// fee 10.
    fn triangle() -> RoutingTable {
        let mut table =
            RoutingTable::new(vec!["chain-a".into(), "chain-b".into(), "chain-c".into()]);
        table.add_edge(0, 1, 1);
        table.add_edge(1, 2, 1);
        table.add_edge(0, 2, 10);
        table
    }

    #[test]
    fn fewest_hops_takes_the_direct_edge() {
        let table = triangle();
        let route = table.route("chain-a", "chain-c", &PathPolicy::FewestHops).unwrap();
        assert_eq!(route.len(), 1);
        assert_eq!(route[0].edge, 2);
    }

    #[test]
    fn cheapest_fees_detours_around_an_expensive_edge() {
        let table = triangle();
        let route = table.route("chain-a", "chain-c", &PathPolicy::CheapestFees).unwrap();
        assert_eq!(route.len(), 2, "1+1 beats the direct fee of 10");
        assert_eq!((route[0].from, route[0].to), (0, 1));
        assert_eq!((route[1].from, route[1].to), (1, 2));
    }

    #[test]
    fn avoid_excludes_transit_chains_but_not_endpoints() {
        let table = triangle();
        let policy = PathPolicy::Avoid(vec!["chain-b".into()]);
        let route = table.route("chain-a", "chain-c", &policy).unwrap();
        assert_eq!(route.len(), 1, "must transit nothing: only the direct edge remains");
        // The avoided chain can still be a destination.
        let to_b = table.route("chain-a", "chain-b", &policy).unwrap();
        assert_eq!(to_b.len(), 1);
    }

    #[test]
    fn unreachable_and_unknown_are_none() {
        let mut table = triangle();
        table.nodes.push("chain-d".into()); // no edges
        assert!(table.route("chain-a", "chain-d", &PathPolicy::FewestHops).is_none());
        assert!(table.route("chain-a", "nope", &PathPolicy::FewestHops).is_none());
        // Avoiding the only transit chain of a line severs the route.
        let mut line = RoutingTable::new(vec!["a".into(), "b".into(), "c".into()]);
        line.add_edge(0, 1, 1);
        line.add_edge(1, 2, 1);
        assert!(line.route("a", "c", &PathPolicy::Avoid(vec!["b".into()])).is_none());
    }

    #[test]
    fn self_route_is_empty() {
        let table = triangle();
        let route = table.route("chain-a", "chain-a", &PathPolicy::FewestHops).unwrap();
        assert!(route.is_empty());
    }

    #[test]
    fn fee_ties_break_on_fewer_hops() {
        // a—b—c all free, plus a free direct a—c: cheapest must pick the
        // 1-hop path even though costs tie at zero.
        let mut table = RoutingTable::new(vec!["a".into(), "b".into(), "c".into()]);
        table.add_edge(0, 1, 0);
        table.add_edge(1, 2, 0);
        table.add_edge(0, 2, 0);
        let route = table.route("a", "c", &PathPolicy::CheapestFees).unwrap();
        assert_eq!(route.len(), 1);
    }
}
