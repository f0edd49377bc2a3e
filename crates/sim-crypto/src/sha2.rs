//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Implemented here rather than pulled from crates.io so that the whole
//! reproduction is self-contained. Verified against the official NIST test
//! vectors in the unit tests at the bottom of this module.

use crate::Hash;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
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

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sim_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sim_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (excluding what is buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.len += 64;
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk() {
            compress(&mut self.state, block);
            self.len += 64;
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
        self
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Hash {
        let bit_len = (self.len + self.buf_len as u64) * 8;
        // Append the 0x80 marker, zero padding, and the 64-bit length (in a
        // block of its own when fewer than eight bytes are left in this one).
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash::from_bytes(out)
    }
}

/// One block through the compression function (FIPS 180-4 §6.2.2).
///
/// The 64 rounds are written out, the working variables renamed from
/// round to round instead of moved. The message schedule is a rolling
/// window of 16 words, each extended in place by the round that next
/// needs it, and `Maj` is spelled `(a & b) ^ (c & (a ^ b))`.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            if $i >= 16 {
                let w15 = w[($i + 1) & 15];
                let w2 = w[($i + 14) & 15];
                w[$i & 15] = w[$i & 15]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            }
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add($g ^ ($e & ($f ^ $g)))
                .wrapping_add(K[$i])
                .wrapping_add(w[$i & 15]);
            $d = $d.wrapping_add(t1);
            $h = t1
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($c & ($a ^ $b)));
        };
    }
    macro_rules! eight_rounds {
        ($($i:expr),*) => {$(
            round!(a, b, c, d, e, f, g, h, $i);
            round!(h, a, b, c, d, e, f, g, $i + 1);
            round!(g, h, a, b, c, d, e, f, $i + 2);
            round!(f, g, h, a, b, c, d, e, $i + 3);
            round!(e, f, g, h, a, b, c, d, $i + 4);
            round!(d, e, f, g, h, a, b, c, $i + 5);
            round!(c, d, e, f, g, h, a, b, $i + 6);
            round!(b, c, d, e, f, g, h, a, $i + 7);
        )*};
    }
    eight_rounds!(0, 8, 16, 24, 32, 40, 48, 56);

    for (word, worked) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(worked);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let digest = sim_crypto::sha256(b"abc");
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
pub fn sha256(data: impl AsRef<[u8]>) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        let mut hasher = Sha256::new();
        for _ in 0..1000 {
            hasher.update([b'a'; 1000]);
        }
        assert_eq!(
            hasher.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in 0..data.len() {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Padding edge cases: 55, 56, 63, 64, 65 bytes.
        let known = [(55usize, true), (56, true), (63, true), (64, true), (65, true)];
        for (len, _) in known {
            let data = vec![0x61u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update([*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
