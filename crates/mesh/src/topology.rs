//! Declarative mesh topologies: chains as nodes, IBC links as edges.
//!
//! A [`MeshConfig`] is pure data — chain specs, link specs, the hop
//! timeout and an optional chaos plan — that [`crate::Mesh::build`]
//! turns into a live multi-chain deployment. Presets cover the shapes
//! the scaling benchmark sweeps: [`MeshConfig::line`] and
//! [`MeshConfig::ring`]. The harness's timing
//! is fixed ([`STEP_MS`], [`RELAY_INTERVAL_MS`]); blocks follow each
//! chain's own cadence (`CounterpartyChain::tick`).

use chaos::ChaosPlan;
use counterparty_sim::CounterpartyConfig;
use relayer::LinkFee;
use serde::{Deserialize, Serialize};

/// Harness step size.
pub(crate) const STEP_MS: u64 = 1_000;
/// How often each link's relayer wakes up.
pub(crate) const RELAY_INTERVAL_MS: u64 = 2_000;

/// Consensus cadence profile of a mesh chain. Each maps to a
/// [`CounterpartyConfig`] with a distinct block interval and validator-set
/// size, so a heterogeneous mesh exercises light clients of different
/// costs (the per-signature fee axis of [`LinkFee`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostProfile {
    /// Cosmos-style: ~6 s blocks, mid-sized validator set.
    #[default]
    CosmosLike,
    /// NEAR-style: ~1 s blocks, small validator set.
    NearLike,
    /// Tron-style: ~3 s blocks, a compact super-representative set.
    TronLike,
}

impl HostProfile {
    /// The chain configuration realising this profile.
    ///
    /// Validator sets are kept small (mesh runs simulate many chains for
    /// many in-sim days; signing cost scales with set size × blocks) but
    /// distinct, so client-update fees differ per profile.
    pub fn chain_config(self) -> CounterpartyConfig {
        match self {
            Self::CosmosLike => CounterpartyConfig {
                num_validators: 16,
                participation: 0.9,
                block_interval_ms: 6_000,
                rotation_interval_blocks: 0,
            },
            Self::NearLike => CounterpartyConfig {
                num_validators: 8,
                participation: 0.95,
                block_interval_ms: 1_000,
                rotation_interval_blocks: 0,
            },
            Self::TronLike => CounterpartyConfig {
                num_validators: 12,
                participation: 0.9,
                block_interval_ms: 3_000,
                rotation_interval_blocks: 0,
            },
        }
    }
}

/// One chain in the mesh.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChainSpec {
    /// Unique chain name; chaos faults and telemetry labels use it.
    pub name: String,
    /// The chain's native denomination.
    pub denom: String,
    /// Consensus profile.
    #[serde(default)]
    pub profile: HostProfile,
}

/// One IBC link (connection + ICS-20 channel pair) between two chains,
/// served by its own scheduled relayer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One endpoint chain (handshake initiator).
    pub a: String,
    /// The other endpoint chain.
    pub b: String,
    /// What relaying over this link costs.
    #[serde(default)]
    pub fee: LinkFee,
}

impl LinkSpec {
    /// A free link between two named chains, relayed every 2 s.
    pub fn new(a: impl Into<String>, b: impl Into<String>) -> Self {
        Self { a: a.into(), b: b.into(), fee: LinkFee::FREE }
    }

    /// The label chaos plans and telemetry identify this link by.
    pub fn label(&self) -> String {
        format!("{}<>{}", self.a, self.b)
    }
}

/// A whole mesh deployment, as data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Master seed; every chain derives its own stream from it.
    pub seed: u64,
    /// Per-hop packet timeout for routed transfers.
    #[serde(default = "default_hop_timeout_ms")]
    pub hop_timeout_ms: u64,
    /// The chains.
    pub chains: Vec<ChainSpec>,
    /// The links.
    pub links: Vec<LinkSpec>,
    /// Scheduled faults (empty = clean run).
    #[serde(default)]
    pub chaos: ChaosPlan,
    /// ICS-29-style packet fee escrowed (in the origin chain's native
    /// denom, paid by the sender) for every routed transfer's first leg.
    /// `None` (the default) sends fee-free, byte-identical to meshes
    /// built before the fee middleware existed.
    #[serde(default)]
    pub packet_fee: Option<apps::PacketFee>,
}

fn default_hop_timeout_ms() -> u64 {
    10 * 60 * 1_000
}

/// The preset name of chain `i`: `chain-a`, `chain-b`, …
pub fn chain_name(i: usize) -> String {
    if i < 26 {
        format!("chain-{}", (b'a' + i as u8) as char)
    } else {
        format!("chain-{i}")
    }
}

/// The preset denomination of chain `i`: `tok-a`, `tok-b`, …
pub fn chain_denom(i: usize) -> String {
    if i < 26 {
        format!("tok-{}", (b'a' + i as u8) as char)
    } else {
        format!("tok-{i}")
    }
}

impl MeshConfig {
    /// An empty mesh with default timing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            hop_timeout_ms: default_hop_timeout_ms(),
            chains: Vec::new(),
            links: Vec::new(),
            chaos: ChaosPlan::default(),
            packet_fee: None,
        }
    }

    /// Adds a chain with preset name/denom for slot `i`.
    fn push_preset_chain(&mut self, i: usize) {
        self.chains.push(ChainSpec {
            name: chain_name(i),
            denom: chain_denom(i),
            profile: HostProfile::CosmosLike,
        });
    }

    /// A path `chain-a — chain-b — … `: `n` chains, `n-1` links. The
    /// longest route has `n-1` hops.
    pub fn line(n: usize, seed: u64) -> Self {
        let mut config = Self::new(seed);
        for i in 0..n {
            config.push_preset_chain(i);
        }
        for i in 1..n {
            config.links.push(LinkSpec::new(chain_name(i - 1), chain_name(i)));
        }
        config
    }

    /// A cycle: the line plus a closing link, giving every pair two
    /// disjoint routes.
    pub fn ring(n: usize, seed: u64) -> Self {
        let mut config = Self::line(n, seed);
        if n > 2 {
            config.links.push(LinkSpec::new(chain_name(n - 1), chain_name(0)));
        }
        config
    }

    /// Index of the named chain.
    pub fn chain_index(&self, name: &str) -> Option<usize> {
        self.chains.iter().position(|c| c.name == name)
    }

    /// Checks the topology is well-formed: unique chain names, links
    /// referencing existing chains, no self-links, no duplicate links.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, chain) in self.chains.iter().enumerate() {
            if self.chains.iter().skip(i + 1).any(|other| other.name == chain.name) {
                return Err(format!("duplicate chain name {:?}", chain.name));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if link.a == link.b {
                return Err(format!("self-link on {:?}", link.a));
            }
            for end in [&link.a, &link.b] {
                if self.chain_index(end).is_none() {
                    return Err(format!("link references unknown chain {end:?}"));
                }
            }
            if self.links.iter().skip(i + 1).any(|other| {
                (other.a == link.a && other.b == link.b) || (other.a == link.b && other.b == link.a)
            }) {
                return Err(format!("duplicate link {}", link.label()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let line = MeshConfig::line(4, 1);
        assert_eq!(line.chains.len(), 4);
        assert_eq!(line.links.len(), 3);
        line.validate().unwrap();

        let ring = MeshConfig::ring(4, 1);
        assert_eq!(ring.links.len(), 4);
        ring.validate().unwrap();

        assert_eq!(chain_name(0), "chain-a");
        assert_eq!(chain_denom(2), "tok-c");
    }

    #[test]
    fn validation_rejects_malformed_topologies() {
        let mut config = MeshConfig::line(3, 1);
        config.links.push(LinkSpec::new("chain-a", "chain-a"));
        assert!(config.validate().unwrap_err().contains("self-link"));

        let mut config = MeshConfig::line(3, 1);
        config.links.push(LinkSpec::new("chain-a", "chain-z"));
        assert!(config.validate().unwrap_err().contains("unknown chain"));

        let mut config = MeshConfig::line(3, 1);
        config.links.push(LinkSpec::new("chain-b", "chain-a"));
        assert!(config.validate().unwrap_err().contains("duplicate link"));

        let mut config = MeshConfig::line(2, 1);
        config.chains[1].name = "chain-a".into();
        assert!(config.validate().unwrap_err().contains("duplicate chain"));
    }

    #[test]
    fn config_serde_roundtrips() {
        let config = MeshConfig::ring(3, 42);
        let json = serde_json::to_string(&config).unwrap();
        let back: MeshConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.chains.len(), 3);
        assert_eq!(back.links.len(), 3);
        assert_eq!(back.seed, 42);
    }

    #[test]
    fn profiles_differ_in_cadence() {
        let cosmos = HostProfile::CosmosLike.chain_config();
        let near = HostProfile::NearLike.chain_config();
        assert!(near.block_interval_ms < cosmos.block_interval_ms);
        assert!(near.num_validators < cosmos.num_validators);
    }
}
