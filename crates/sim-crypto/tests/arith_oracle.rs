//! `schnorr.rs` reduces modulo its two pseudo-Mersenne primes by folding and
//! takes powers of `G` from a table, and `sha2.rs` runs an unrolled round
//! over a 16-word schedule; this file keeps what they replaced — `u128 %`,
//! square-and-multiply for every power, the loop-form compression function —
//! verbatim as the oracle and checks the two against each other.
//!
//! The known-answer vectors at the bottom were printed by the commit before
//! the change, so a wire-visible difference fails here with a readable diff
//! rather than as a moved simulation timeline.

use proptest::prelude::*;
use sim_crypto::rng::SplitMix64;
use sim_crypto::schnorr::{
    mul_add_mod_q, mul_mod, pow_g, pow_mod, Keypair, PrivateKey, G, G_TABLE, P, Q,
};
use sim_crypto::{sha256, Sha256};

// ---- the old arithmetic -------------------------------------------------

fn oracle_mul(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P as u128) as u64
}

fn oracle_pow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = oracle_mul(acc, base);
        }
        base = oracle_mul(base, base);
        exp >>= 1;
    }
    acc
}

fn oracle_mul_add_q(k: u64, e: u64, x: u64) -> u64 {
    ((k as u128 + e as u128 * x as u128) % Q as u128) as u64
}

// ---- the old SHA-256 ----------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn oracle_compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, worked) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(worked);
    }
}

/// One-shot digest: pad the whole message, then the old loop-form rounds.
fn oracle_sha256(data: &[u8]) -> [u8; 32] {
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for block in padded.chunks_exact(64) {
        oracle_compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---- new ≡ old ----------------------------------------------------------

proptest! {
    #[test]
    fn mul_mod_matches_the_division(a in 0..P, b in 0..P) {
        prop_assert_eq!(mul_mod(a, b), oracle_mul(a, b));
    }

    /// The fold is exact for every `u64` pair, not only reduced operands
    /// (a deserialized key can carry any point).
    #[test]
    fn mul_mod_matches_the_division_on_unreduced_operands(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(mul_mod(a, b), oracle_mul(a, b));
    }

    #[test]
    fn pow_mod_matches_the_division(base in any::<u64>(), exp in any::<u64>()) {
        prop_assert_eq!(pow_mod(base, exp), oracle_pow(base, exp));
    }

    #[test]
    fn response_step_matches_the_division(k in 0..Q, e in 0..Q, x in 0..Q) {
        prop_assert_eq!(mul_add_mod_q(k, e, x), oracle_mul_add_q(k, e, x));
    }
}

#[test]
fn mul_mod_matches_the_division_on_the_edges() {
    let edges = [0, 1, 2, P - 2, P - 1, 1 << 60, (1 << 60) + 1, P / 2, P / 2 + 1];
    for a in edges {
        for b in edges {
            assert_eq!(mul_mod(a, b), oracle_mul(a, b), "{a} · {b}");
        }
    }
    // The largest products there are: ≥ 2^121, where both folds carry.
    assert!((P - 1) as u128 * (P - 2) as u128 >= 1 << 121);
    assert_eq!(mul_mod(u64::MAX, u64::MAX), oracle_mul(u64::MAX, u64::MAX));
}

#[test]
fn response_step_matches_the_division_on_the_edges() {
    let edges = [0, 1, 2, Q - 2, Q - 1, 1 << 59, Q / 2];
    for k in edges {
        for e in edges {
            for x in edges {
                assert_eq!(mul_add_mod_q(k, e, x), oracle_mul_add_q(k, e, x), "{k} + {e} · {x}");
            }
        }
    }
}

#[test]
fn every_table_entry_is_a_power_of_g() {
    for (i, window) in G_TABLE.iter().enumerate() {
        for (d, &entry) in window.iter().enumerate() {
            assert_eq!(entry, oracle_pow(G, (d as u64) << (4 * i)), "window {i}, digit {d}");
        }
    }
}

#[test]
fn fixed_base_power_matches_square_and_multiply() {
    let mut rng = SplitMix64::new(18);
    let random = (0..10_000).map(|_| rng.next_u64());
    for exp in [0, 1, Q - 1, Q, u64::MAX].into_iter().chain(random) {
        assert_eq!(pow_g(exp), oracle_pow(G, exp), "g^{exp}");
    }
}

#[test]
fn compress_matches_the_loop_form_at_every_split() {
    let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
    for len in 0..=data.len() {
        let message = &data[..len];
        let expected = oracle_sha256(message);
        assert_eq!(sha256(message).as_bytes(), &expected, "one shot, {len} bytes");
        for split in 0..=len {
            let mut hasher = Sha256::new();
            hasher.update(&message[..split]);
            hasher.update(&message[split..]);
            assert_eq!(hasher.finalize().as_bytes(), &expected, "{len} bytes split at {split}");
        }
    }
}

// ---- known answers from the parent commit --------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn keys_and_signatures_are_the_parent_commits() {
    let m32: Vec<u8> = (0..32).collect();
    let m1000: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    // (seed, message, public key, signature) as `c271a8e` encodes them.
    let vectors: [(u64, &[u8], &str, &str); 4] = [
        (
            1,
            b"",
            "c8f2978e9384b312626d672d7363686e6f72722d706b2d31f8b75bf238d5eb82",
            "43e2aab967a11f0d292b1ddac27e9b0e626d672d7363686e6f72722d73696731\
             f1774ecacdd430150cbeb9772aea0e5fa7fc8de060476b9f74175a7d88b76811",
        ),
        (
            7,
            &m32,
            "2ac8dafbdf186401626d672d7363686e6f72722d706b2d31847c5d1b30673a32",
            "c61d9505ccdef40678173cff11d6ad09626d672d7363686e6f72722d73696731\
             d82feea1339e978e29ab78637838a424785c97750da6702d2673b855a7f5df43",
        ),
        (
            99,
            &m1000,
            "55c7f3aa48638f0e626d672d7363686e6f72722d706b2d317bb24ba134e0dd20",
            "9cd9dabeb522b503512e4b4761e02c04626d672d7363686e6f72722d73696731\
             1f951134fb7e1f4565f8f4b9530fb939ebb55276257495ad42612c558b1332d0",
        ),
        (
            u64::MAX,
            b"guest block 42",
            "33bf6c9882c9e608626d672d7363686e6f72722d706b2d31a1056a444db07c85",
            "ce122d3eaa2e3700a5a86dc895898508626d672d7363686e6f72722d73696731\
             b8e5a0c06eb1791f9d1fa262612fe3513e686907802f010fc312ae66d01f4de1",
        ),
    ];
    for (seed, message, public, signature) in vectors {
        let keypair = Keypair::from_seed(seed);
        assert_eq!(hex(&keypair.public().to_bytes()), public, "public key of seed {seed}");
        assert_eq!(hex(&keypair.sign(message).to_bytes()), signature, "signature by seed {seed}");
        // The bare private key signs the same bytes without the cached encoding.
        let private = PrivateKey::from_seed(seed);
        assert_eq!(private.public(), keypair.public());
        assert_eq!(private.sign(message), keypair.sign(message));
        assert!(keypair.public().verify(message, &keypair.sign(message)));
    }
}
