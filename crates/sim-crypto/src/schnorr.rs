//! Schnorr signatures over a 61-bit safe-prime group.
//!
//! The paper's deployment signs guest blocks with Ed25519. This module keeps
//! the same algebra (Schnorr identification turned into a signature via
//! Fiat–Shamir) but works in the multiplicative group modulo the safe prime
//! `p = 2·q + 1` with `p < 2^61`, so all arithmetic fits in `u128`.
//!
//! Both moduli are pseudo-Mersenne (`p = 2^61 − 2373`, `q = 2^60 − 1187`), so
//! a product is reduced by folding its high bits down twice and subtracting
//! once — no division — and powers of the generator come from a table built
//! at compile time, one multiplication per 4-bit digit of the exponent.
//!
//! Wire sizes are padded to Ed25519's (32-byte public keys, 64-byte
//! signatures) so that transaction-size accounting in the host simulator —
//! which drives the paper's chunked light-client updates — is faithful.
//!
//! # Security
//!
//! 61-bit discrete log is breakable in seconds. This is a *simulation*
//! primitive: honest verification, real failure modes, toy parameters.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::rng::SplitMix64;
use crate::{sha256, Sha256};

/// The group modulus: a safe prime below `2^61`.
pub const P: u64 = 2_305_843_009_213_691_579;
/// The prime order of the subgroup generated by [`G`]: `q = (p − 1) / 2`.
pub const Q: u64 = 1_152_921_504_606_845_789;
/// Generator of the order-[`Q`] subgroup (`4 = 2²` is a quadratic residue).
pub const G: u64 = 4;

/// Serialized public-key length (matches Ed25519).
const PUBLIC_KEY_LEN: usize = 32;
/// Serialized signature length (matches Ed25519).
const SIGNATURE_LEN: usize = 64;

/// Reduces `x` modulo the pseudo-Mersenne prime `m = 2^bits − c` without
/// dividing: `2^bits ≡ c (mod m)`, so the bits above `bits` fold down as
/// `(x & mask) + (x >> bits)·c`. For `x < 2^128` and the two moduli here the
/// first fold leaves fewer than 80 bits, the second less than `2·m`, and one
/// conditional subtraction finishes.
#[inline]
const fn fold(x: u128, bits: u32, modulus: u64) -> u64 {
    let mask = (1u128 << bits) - 1;
    let c = mask + 1 - modulus as u128;
    let x = (x & mask) + (x >> bits) * c;
    let x = ((x & mask) + (x >> bits) * c) as u64;
    if x >= modulus {
        x - modulus
    } else {
        x
    }
}

/// `a · b mod p`, for any `a` and `b`.
#[inline]
pub const fn mul_mod(a: u64, b: u64) -> u64 {
    fold(a as u128 * b as u128, 61, P)
}

/// `k + e · x mod q` (the response step of signing), for operands below `q`.
#[inline]
pub const fn mul_add_mod_q(k: u64, e: u64, x: u64) -> u64 {
    debug_assert!(k < Q && e < Q && x < Q);
    fold(k as u128 + e as u128 * x as u128, 60, Q)
}

/// `base^exp mod p` by square-and-multiply.
#[inline]
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Powers of [`G`] by 4-bit window: `G_TABLE[i][d] = g^(d · 16^i) mod p`,
/// built at compile time (16 windows × 16 digits, 2 KiB).
pub static G_TABLE: [[u64; 16]; 16] = {
    let mut table = [[1u64; 16]; 16];
    let mut base = G;
    let mut i = 0;
    while i < 16 {
        let mut d = 1;
        while d < 16 {
            table[i][d] = mul_mod(table[i][d - 1], base);
            d += 1;
        }
        base = mul_mod(table[i][15], base);
        i += 1;
    }
    table
};

/// `g^exp mod p` from [`G_TABLE`]: one multiplication per 4-bit digit of
/// `exp`, no squarings.
#[inline]
pub fn pow_g(exp: u64) -> u64 {
    let mut acc = G_TABLE[0][(exp & 15) as usize];
    for (i, window) in G_TABLE.iter().enumerate().skip(1) {
        acc = mul_mod(acc, window[(exp >> (4 * i) & 15) as usize]);
    }
    acc
}

/// Reduces a hash to a scalar modulo [`Q`].
fn hash_to_scalar(parts: &[&[u8]]) -> u64 {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    let digest = hasher.finalize();
    let mut word = [0u8; 8];
    word.copy_from_slice(&digest.as_bytes()[..8]);
    u64::from_le_bytes(word) % Q
}

/// A private signing key (a scalar in `[1, q)`).
#[derive(Clone, PartialEq, Eq)]
pub struct PrivateKey {
    scalar: u64,
}

impl PrivateKey {
    /// Derives a private key deterministically from a seed.
    ///
    /// Two distinct seeds give distinct keys with overwhelming probability.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xd1f3_5c7a_9b42_e680);
        let scalar = 1 + rng.next_below(Q - 1);
        Self { scalar }
    }

    /// Returns the matching public key.
    pub fn public(&self) -> PublicKey {
        PublicKey { point: pow_g(self.scalar) }
    }

    /// Signs `message` (deterministic nonce, RFC 6979 style).
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_as(&self.public().to_bytes(), message)
    }

    /// [`Self::sign`] given the encoding of the matching public key.
    fn sign_as(&self, public: &[u8; PUBLIC_KEY_LEN], message: &[u8]) -> Signature {
        // Deterministic nonce bound to both the key and the message.
        let k = 1 + hash_to_scalar(&[b"bmg/nonce", &self.scalar.to_le_bytes(), message]) % (Q - 1);
        let r = pow_g(k);
        let e = hash_to_scalar(&[b"bmg/chal", &r.to_le_bytes(), public, message]);
        Signature { e, s: mul_add_mod_q(k, e, self.scalar) }
    }
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        write!(f, "PrivateKey(pub: {:?})", self.public())
    }
}

/// A public verification key (a group element).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    point: u64,
}

impl PublicKey {
    /// Length of [`Self::to_bytes`].
    pub const LEN: usize = PUBLIC_KEY_LEN;

    /// Serializes to a 32-byte, Ed25519-sized encoding.
    ///
    /// The group element occupies the first 8 bytes (little endian); the
    /// remainder is a fixed domain tag so encodings are structured, not
    /// zero-padded garbage.
    pub fn to_bytes(self) -> [u8; PUBLIC_KEY_LEN] {
        let mut out = [0u8; PUBLIC_KEY_LEN];
        out[..8].copy_from_slice(&self.point.to_le_bytes());
        out[8..24].copy_from_slice(b"bmg-schnorr-pk-1");
        let checksum = sha256(self.point.to_le_bytes());
        out[24..].copy_from_slice(&checksum.as_bytes()[..8]);
        out
    }

    /// Parses a 32-byte encoding produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if the tag/checksum is wrong or the element is
    /// not in the order-`q` subgroup.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Result<Self, KeyError> {
        if &bytes[8..24] != b"bmg-schnorr-pk-1" {
            return Err(KeyError::BadEncoding);
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[..8]);
        let point = u64::from_le_bytes(word);
        let checksum = sha256(point.to_le_bytes());
        if bytes[24..] != checksum.as_bytes()[..8] {
            return Err(KeyError::BadEncoding);
        }
        Self::from_point(point)
    }

    /// Builds a key directly from a group element, validating membership.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::NotInGroup`] if `point` is not an element of the
    /// order-`q` subgroup (this includes 0, 1 and anything ≥ `p`).
    fn from_point(point: u64) -> Result<Self, KeyError> {
        if point == 0 || point == 1 || point >= P || pow_mod(point, Q) != 1 {
            return Err(KeyError::NotInGroup);
        }
        Ok(Self { point })
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        if signature.s >= Q || signature.e >= Q {
            return false;
        }
        // r' = g^s · pk^(−e)  (−e mod q = q − e; e == 0 would make pk^0 = 1).
        let neg_e = if signature.e == 0 { 0 } else { Q - signature.e };
        let r = mul_mod(pow_g(signature.s), pow_mod(self.point, neg_e));
        let e = hash_to_scalar(&[b"bmg/chal", &r.to_le_bytes(), &self.to_bytes(), message]);
        e == signature.e
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#x})", self.point)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.point)
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    e: u64,
    s: u64,
}

impl Signature {
    /// Length of [`Self::to_bytes`].
    pub const LEN: usize = SIGNATURE_LEN;

    /// Serializes to a 64-byte, Ed25519-sized encoding.
    pub fn to_bytes(self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..8].copy_from_slice(&self.e.to_le_bytes());
        out[8..16].copy_from_slice(&self.s.to_le_bytes());
        out[16..32].copy_from_slice(b"bmg-schnorr-sig1");
        // The rest is a deterministic expansion so the wire bytes are unique
        // per signature (as Ed25519 signatures would be).
        let fill = sha256([self.e.to_le_bytes(), self.s.to_le_bytes()].concat());
        out[32..].copy_from_slice(fill.as_bytes());
        out
    }

    /// Parses a 64-byte encoding produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::BadEncoding`] on a malformed buffer.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Result<Self, KeyError> {
        if &bytes[16..32] != b"bmg-schnorr-sig1" {
            return Err(KeyError::BadEncoding);
        }
        let mut e = [0u8; 8];
        e.copy_from_slice(&bytes[..8]);
        let mut s = [0u8; 8];
        s.copy_from_slice(&bytes[8..16]);
        Ok(Self { e: u64::from_le_bytes(e), s: u64::from_le_bytes(s) })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(e: {:#x}, s: {:#x})", self.e, self.s)
    }
}

/// A private/public key pair.
///
/// # Examples
///
/// ```
/// use sim_crypto::schnorr::Keypair;
///
/// let keypair = Keypair::from_seed(1);
/// let signature = keypair.sign(b"block 7");
/// assert!(keypair.public().verify(b"block 7", &signature));
/// assert!(!keypair.public().verify(b"block 8", &signature));
/// ```
#[derive(Clone, Debug)]
pub struct Keypair {
    private: PrivateKey,
    public: PublicKey,
    /// `public.to_bytes()`, which every signature's challenge hashes.
    public_bytes: [u8; PUBLIC_KEY_LEN],
}

impl Keypair {
    /// Derives a keypair deterministically from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let private = PrivateKey::from_seed(seed);
        let public = private.public();
        Self { private, public, public_bytes: public.to_bytes() }
    }

    /// Returns the public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with the private half.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.private.sign_as(&self.public_bytes, message)
    }
}

/// Errors decoding keys or signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyError {
    /// The byte encoding was malformed.
    BadEncoding,
    /// The element is not in the prime-order subgroup.
    NotInGroup,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadEncoding => f.write_str("malformed key or signature encoding"),
            Self::NotInGroup => f.write_str("element is not in the prime-order subgroup"),
        }
    }
}

impl std::error::Error for KeyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parameters_are_consistent() {
        // p = 2q + 1 and g generates the order-q subgroup.
        assert_eq!(P, 2 * Q + 1);
        assert_eq!(pow_mod(G, Q), 1);
        assert_ne!(pow_mod(G, 1), 1);
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed(99);
        for msg in [b"a".as_slice(), b"hello", &[0u8; 1000]] {
            let sig = kp.sign(msg);
            assert!(kp.public().verify(msg, &sig));
        }
    }

    #[test]
    fn wrong_message_fails() {
        let kp = Keypair::from_seed(1);
        let sig = kp.sign(b"msg");
        assert!(!kp.public().verify(b"msg2", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp = Keypair::from_seed(1);
        let other = Keypair::from_seed(2);
        let sig = kp.sign(b"msg");
        assert!(!other.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::from_seed(5);
        let sig = kp.sign(b"msg");
        let tampered = Signature { e: sig.e ^ 1, s: sig.s };
        assert!(!kp.public().verify(b"msg", &tampered));
        let tampered = Signature { e: sig.e, s: sig.s ^ 1 };
        assert!(!kp.public().verify(b"msg", &tampered));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let kp = Keypair::from_seed(5);
        assert!(!kp.public().verify(b"m", &Signature { e: Q, s: 0 }));
        assert!(!kp.public().verify(b"m", &Signature { e: 0, s: Q }));
    }

    #[test]
    fn key_encoding_round_trip() {
        let pk = Keypair::from_seed(3).public();
        let parsed = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(parsed, pk);
    }

    #[test]
    fn key_encoding_rejects_garbage() {
        assert_eq!(PublicKey::from_bytes(&[0u8; PUBLIC_KEY_LEN]), Err(KeyError::BadEncoding));
        // Valid tag/checksum but element outside the subgroup: 2 is a
        // non-residue generator of the full group, so 2^q = −1 ≠ 1.
        assert_eq!(PublicKey::from_point(2), Err(KeyError::NotInGroup));
        assert_eq!(PublicKey::from_point(0), Err(KeyError::NotInGroup));
        assert_eq!(PublicKey::from_point(1), Err(KeyError::NotInGroup));
        assert_eq!(PublicKey::from_point(P), Err(KeyError::NotInGroup));
    }

    #[test]
    fn signature_encoding_round_trip() {
        let kp = Keypair::from_seed(11);
        let sig = kp.sign(b"encode me");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(kp.public().verify(b"encode me", &parsed));
    }

    #[test]
    fn signatures_are_deterministic() {
        let kp = Keypair::from_seed(42);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let keys: Vec<_> = (0..100).map(|s| Keypair::from_seed(s).public().to_bytes()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
