//! `CpLightClient` is `QuorumClient<CpHeader>`; `oracle/` keeps the
//! counterparty client it replaced. Both are fed the same header sequences
//! (sub-quorum, exactly-⅔, duplicate-signer, outsider, forged-signature,
//! stale and malformed headers, rotations, misbehaviour pairs that do and
//! do not conflict) and must agree after every step: the outcome and its
//! error variant, the latest height, every consensus state, the
//! misbehaviour verdict and the frozen flag.

mod oracle;

use std::mem::discriminant;

use counterparty_sim::{CpHeader, CpLightClient};
use ibc_core::{Height, IbcError, LightClient};
use proptest::prelude::*;
use sim_crypto::schnorr::{Keypair, PublicKey};
use sim_crypto::sha256;

/// Signs in every test but belongs to no set.
const OUTSIDER: u64 = 1_000;

/// A validator set: keys `Keypair::from_seed(start + i)` with `powers[i]`.
#[derive(Clone, Debug)]
struct Set {
    start: u64,
    powers: Vec<u64>,
}

impl Set {
    fn validators(&self) -> Vec<(PublicKey, u64)> {
        let keys = (self.start..).map(|seed| Keypair::from_seed(seed).public());
        keys.zip(self.powers.iter().copied()).collect()
    }
}

/// Who signs a header.
#[derive(Clone, Debug)]
struct Signing {
    /// Bit `i`: member `i` of the trusted set signs.
    members: u8,
    /// The first signature appears twice.
    duplicate: bool,
    /// A key outside every set signs too.
    outsider: bool,
    /// The last signature is not its signer's.
    forged: bool,
}

#[derive(Clone, Debug)]
enum Step {
    /// A header `ahead` heights above the client's latest (≤ 0: stale),
    /// announcing `rotation` when set.
    Update { ahead: i64, root: u8, signing: Signing, rotation: Option<Set> },
    /// A fully signed header cut to its first `keep`‰ bytes.
    Truncated { keep: u16 },
    /// Bytes that are not a header.
    Noise(Vec<u8>),
    /// Two headers `ahead` heights above latest; `fork` 0 is none, 1 a
    /// different app hash, 2 a different timestamp.
    Evidence { ahead: u64, fork: u8, a: Signing, b: Signing },
}

fn set() -> impl Strategy<Value = Set> {
    let equal = (3usize..=6, 1u64..4).prop_map(|(n, power)| vec![power; n]);
    let mixed = proptest::collection::vec(1u64..4, 3..=6);
    (0u64..8, prop_oneof![equal, mixed]).prop_map(|(start, powers)| Set { start, powers })
}

fn signing() -> impl Strategy<Value = Signing> {
    (any::<u8>(), 0u8..10, 0u8..10, 0u8..10).prop_map(|(members, d, o, f)| Signing {
        members,
        duplicate: d == 0,
        outsider: o == 0,
        forged: f == 0,
    })
}

fn rotation() -> impl Strategy<Value = Option<Set>> {
    prop_oneof![4 => Just(None), 1 => set().prop_map(Some)]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (-1i64..=3, any::<u8>(), signing(), rotation()).prop_map(
            |(ahead, root, signing, rotation)| Step::Update { ahead, root, signing, rotation }
        ),
        1 => (0u16..1_000).prop_map(|keep| Step::Truncated { keep }),
        1 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(Step::Noise),
        2 => (0u64..3, 0u8..3, signing(), signing())
            .prop_map(|(ahead, fork, a, b)| Step::Evidence { ahead, fork, a, b }),
    ]
}

/// A header at `height` signed as `signing` says by members of `trusted`.
fn header(
    trusted: &Set,
    height: Height,
    root: u8,
    timestamp_ms: u64,
    rotation: Option<&Set>,
    signing: &Signing,
) -> CpHeader {
    let app_hash = sha256([root]);
    let next_validators = rotation.map(Set::validators);
    let signed =
        CpHeader::signing_bytes(height, &app_hash, timestamp_ms, next_validators.as_deref());
    let mut signatures: Vec<_> = (0..trusted.powers.len())
        .filter(|i| signing.members & (1 << i) != 0)
        .map(|i| {
            let key = Keypair::from_seed(trusted.start + i as u64);
            (key.public(), key.sign(&signed))
        })
        .collect();
    if signing.duplicate {
        if let Some(&first) = signatures.first() {
            signatures.push(first);
        }
    }
    if signing.outsider {
        let key = Keypair::from_seed(OUTSIDER);
        signatures.push((key.public(), key.sign(&signed)));
    }
    if signing.forged {
        if let Some((_, signature)) = signatures.last_mut() {
            *signature = Keypair::from_seed(OUTSIDER).sign(b"other bytes");
        }
    }
    CpHeader { height, app_hash, timestamp_ms, next_validators, signatures }
}

const ALL: Signing = Signing { members: u8::MAX, duplicate: false, outsider: false, forged: false };

fn same_outcome(
    got: &Result<Height, IbcError>,
    want: &Result<Height, IbcError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => {
            prop_assert_eq!(discriminant(a), discriminant(b), "{:?} vs {:?}", a, b)
        }
        _ => prop_assert!(false, "quorum client {:?}, old client {:?}", got, want),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quorum_client_matches_the_old_counterparty_client(
        initial in set(),
        steps in proptest::collection::vec(step(), 1..16),
    ) {
        let mut client = CpLightClient::new(initial.validators());
        let mut oracle = oracle::CpLightClient::new(initial.validators());
        prop_assert_eq!(client.client_type(), oracle.client_type());
        let mut trusted = initial;
        let mut top: Height = 0;
        for step in steps {
            let latest = oracle.latest_height();
            match step {
                Step::Update { ahead, root, signing, rotation } => {
                    let height = latest.saturating_add_signed(ahead);
                    top = top.max(height);
                    let next = rotation.as_ref();
                    let bytes = header(&trusted, height, root, height * 100, next, &signing).encode();
                    let want = oracle.update(&bytes);
                    same_outcome(&client.update(&bytes), &want)?;
                    if let (Ok(_), Some(next)) = (want, rotation) {
                        trusted = next;
                    }
                }
                Step::Truncated { keep } => {
                    let height = latest + 1;
                    let bytes = header(&trusted, height, 0, height * 100, None, &ALL).encode();
                    let bytes = &bytes[..bytes.len() * usize::from(keep) / 1_000];
                    same_outcome(&client.update(bytes), &oracle.update(bytes))?;
                }
                Step::Noise(bytes) => same_outcome(&client.update(&bytes), &oracle.update(&bytes))?,
                Step::Evidence { ahead, fork, a, b } => {
                    let height = latest + ahead;
                    let a = header(&trusted, height, 1, height * 100, None, &a);
                    let (root, timestamp_ms) = match fork {
                        1 => (2, height * 100),
                        2 => (1, height * 100 + 1),
                        _ => (1, height * 100),
                    };
                    let b = header(&trusted, height, root, timestamp_ms, None, &b);
                    let evidence = serde_json::to_vec(&(a, b)).unwrap();
                    let want = oracle.check_misbehaviour(&evidence);
                    prop_assert_eq!(client.check_misbehaviour(&evidence), want);
                    if want {
                        client.freeze();
                        oracle.freeze();
                    }
                }
            }
            prop_assert_eq!(client.latest_height(), oracle.latest_height());
            for height in 0..=top + 1 {
                prop_assert_eq!(client.consensus_state(height), oracle.consensus_state(height));
            }
            prop_assert_eq!(client.is_frozen(), oracle.is_frozen());
        }
    }
}
