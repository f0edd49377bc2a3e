//! `GuestLightClient` is `QuorumClient<GuestHeader>`; `oracle/` keeps the
//! guest client it replaced. Both are fed the same header sequences
//! (sub-quorum, exactly-⅔, duplicate-signer, outsider, forged-signature,
//! wrong-epoch, stale and malformed headers, epoch rotations, misbehaviour
//! pairs that do and do not conflict) and must agree after every step: the
//! outcome and its error variant, the latest height, every consensus
//! state, the misbehaviour verdict and the frozen flag.

mod oracle;

use std::mem::discriminant;

use guest_chain::{Epoch, GuestBlock, GuestHeader, GuestLightClient, GuestMisbehaviour, Validator};
use ibc_core::{Height, IbcError, LightClient};
use proptest::prelude::*;
use sim_crypto::schnorr::Keypair;
use sim_crypto::{sha256, Hash};

/// Signs in every test but belongs to no epoch.
const OUTSIDER: u64 = 1_000;

/// An epoch: keys `Keypair::from_seed(start + i)` with `stakes[i]`.
#[derive(Clone, Debug)]
struct Set {
    start: u64,
    stakes: Vec<u64>,
}

impl Set {
    fn epoch(&self) -> Epoch {
        let keys = (self.start..).map(|seed| Keypair::from_seed(seed).public());
        let validators = keys.zip(&self.stakes).map(|(pubkey, &stake)| Validator { pubkey, stake });
        Epoch::new(validators.collect())
    }
}

/// Who signs a header.
#[derive(Clone, Debug)]
struct Signing {
    /// Bit `i`: member `i` of the trusted epoch signs.
    members: u8,
    /// The first signature appears twice.
    duplicate: bool,
    /// A key outside every epoch signs too.
    outsider: bool,
    /// The last signature is not its signer's.
    forged: bool,
}

#[derive(Clone, Debug)]
enum Step {
    /// A block `ahead` heights above the client's latest (≤ 0: stale),
    /// naming another epoch when `wrong_epoch`, closing its epoch with
    /// `rotation` when set.
    Update { ahead: i64, root: u8, wrong_epoch: bool, signing: Signing, rotation: Option<Set> },
    /// A fully signed header cut to its first `keep`‰ bytes.
    Truncated { keep: u16 },
    /// Bytes that are not a header.
    Noise(Vec<u8>),
    /// Two blocks `ahead` heights above latest; `fork` 0 is none, 1 a
    /// different state root, 2 a different timestamp.
    Evidence { ahead: u64, fork: u8, wrong_epoch: bool, a: Signing, b: Signing },
}

fn set() -> impl Strategy<Value = Set> {
    let equal = (3usize..=6, 1u64..4).prop_map(|(n, stake)| vec![stake; n]);
    let mixed = proptest::collection::vec(1u64..4, 3..=6);
    (0u64..8, prop_oneof![equal, mixed]).prop_map(|(start, stakes)| Set { start, stakes })
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
        6 => (-1i64..=3, any::<u8>(), 0u8..8, signing(), rotation()).prop_map(
            |(ahead, root, e, signing, rotation)| Step::Update {
                ahead,
                root,
                wrong_epoch: e == 0,
                signing,
                rotation,
            }
        ),
        1 => (0u16..1_000).prop_map(|keep| Step::Truncated { keep }),
        1 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(Step::Noise),
        2 => (0u64..3, 0u8..3, 0u8..8, signing(), signing()).prop_map(
            |(ahead, fork, e, a, b)| Step::Evidence { ahead, fork, wrong_epoch: e == 0, a, b }
        ),
    ]
}

/// What a block says beyond its height.
struct Contents<'a> {
    root: u8,
    timestamp_ms: u64,
    wrong_epoch: bool,
    rotation: Option<&'a Set>,
}

/// A header for a block at `height`, signed as `signing` says by members of
/// `trusted`.
fn header(trusted: &Set, height: Height, contents: Contents, signing: &Signing) -> GuestHeader {
    let epoch = trusted.epoch();
    let epoch_id = if contents.wrong_epoch { sha256(epoch.id()) } else { epoch.id() };
    let block = GuestBlock {
        height,
        prev_hash: Hash::ZERO,
        state_root: sha256([contents.root]),
        timestamp_ms: contents.timestamp_ms,
        host_height: height * 10,
        epoch_id,
        next_epoch: contents.rotation.map(Set::epoch),
    };
    let signed = block.signing_bytes();
    let mut signatures: Vec<_> = (0..trusted.stakes.len())
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
    GuestHeader { block, signatures }
}

fn plain(root: u8, timestamp_ms: u64) -> Contents<'static> {
    Contents { root, timestamp_ms, wrong_epoch: false, rotation: None }
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
    fn quorum_client_matches_the_old_guest_client(
        initial in set(),
        steps in proptest::collection::vec(step(), 1..16),
    ) {
        let genesis = GuestBlock::genesis(&initial.epoch(), sha256(b"genesis"), 0, 0);
        let mut client = GuestLightClient::from_genesis(&genesis, initial.epoch());
        let mut oracle = oracle::GuestLightClient::from_genesis(&genesis, initial.epoch());
        prop_assert_eq!(client.client_type(), oracle.client_type());
        let mut trusted = initial;
        let mut top: Height = 0;
        for step in steps {
            let latest = oracle.latest_height();
            match step {
                Step::Update { ahead, root, wrong_epoch, signing, rotation } => {
                    let height = latest.saturating_add_signed(ahead);
                    top = top.max(height);
                    let contents = Contents {
                        root,
                        timestamp_ms: height * 100,
                        wrong_epoch,
                        rotation: rotation.as_ref(),
                    };
                    let bytes = header(&trusted, height, contents, &signing).encode();
                    let want = oracle.update(&bytes);
                    same_outcome(&client.update(&bytes), &want)?;
                    if let (Ok(_), Some(next)) = (want, rotation) {
                        trusted = next;
                    }
                }
                Step::Truncated { keep } => {
                    let height = latest + 1;
                    let bytes = header(&trusted, height, plain(0, height * 100), &ALL).encode();
                    let bytes = &bytes[..bytes.len() * usize::from(keep) / 1_000];
                    same_outcome(&client.update(bytes), &oracle.update(bytes))?;
                }
                Step::Noise(bytes) => same_outcome(&client.update(&bytes), &oracle.update(&bytes))?,
                Step::Evidence { ahead, fork, wrong_epoch, a, b } => {
                    let height = latest + ahead;
                    let first = Contents { wrong_epoch, ..plain(1, height * 100) };
                    let second = match fork {
                        1 => plain(2, height * 100),
                        2 => plain(1, height * 100 + 1),
                        _ => plain(1, height * 100),
                    };
                    let evidence = GuestMisbehaviour {
                        header_a: header(&trusted, height, first, &a),
                        header_b: header(&trusted, height, second, &b),
                    }
                    .encode();
                    let want = oracle.check_misbehaviour(&evidence);
                    prop_assert_eq!(client.check_misbehaviour(&evidence), want);
                    if want {
                        client.freeze();
                        oracle.freeze();
                    }
                }
            }
            prop_assert_eq!(client.latest_height(), oracle.latest_height());
            prop_assert_eq!(client.stored_bytes(), oracle.stored_bytes());
            for height in 0..=top + 1 {
                prop_assert_eq!(client.consensus_state(height), oracle.consensus_state(height));
            }
            prop_assert_eq!(client.is_frozen(), oracle.is_frozen());
        }
    }
}
