//! Key paths as sequences of 4-bit nibbles.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A sequence of 4-bit nibbles (each element is `0..16`).
///
/// Keys are byte strings; the trie branches on nibbles, so an `n`-byte key
/// becomes a `2n`-nibble path. The invariant that every element is below 16
/// is maintained by construction.
///
/// # Examples
///
/// ```
/// use sealable_trie::Nibbles;
///
/// let path = Nibbles::from_key(&[0xAB, 0x01]);
/// assert_eq!(path.as_slice(), &[0xA, 0xB, 0x0, 0x1]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Nibbles(Vec<u8>);

/// A path read from JSON is checked like one passed to
/// [`Nibbles::from_nibbles`]: [`Nibbles::encode`] packs two elements per
/// byte, so one of 16 or more would hash, and hand off, as a different path.
impl<'de> Deserialize<'de> for Nibbles {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let nibbles = Vec::<u8>::deserialize(deserializer)?;
        if nibbles.iter().any(|&n| n >= 16) {
            return Err(serde::de::Error::custom("nibble out of range"));
        }
        Ok(Self(nibbles))
    }
}

impl Nibbles {
    /// Creates an empty path.
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// Converts a byte key into its nibble path (high nibble first).
    pub fn from_key(key: &[u8]) -> Self {
        let mut out = Vec::with_capacity(key.len() * 2);
        for byte in key {
            out.push(byte >> 4);
            out.push(byte & 0xf);
        }
        Self(out)
    }

    /// Wraps a raw nibble vector.
    ///
    /// # Panics
    ///
    /// Panics if any element is 16 or larger.
    pub fn from_nibbles(nibbles: Vec<u8>) -> Self {
        assert!(nibbles.iter().all(|&n| n < 16), "nibble out of range");
        Self(nibbles)
    }

    /// The nibbles as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of nibbles.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Length of the longest common prefix with `other`.
    pub fn common_prefix_len(&self, other: &[u8]) -> usize {
        self.0.iter().zip(other).take_while(|(a, b)| a == b).count()
    }

    /// Returns the sub-path `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> Nibbles {
        Self(self.0[start..end].to_vec())
    }

    /// Appends a single nibble.
    ///
    /// # Panics
    ///
    /// Panics if `nibble >= 16`.
    pub fn push(&mut self, nibble: u8) {
        assert!(nibble < 16, "nibble out of range");
        self.0.push(nibble);
    }

    /// Appends all nibbles of `other`.
    pub fn extend_from(&mut self, other: &Nibbles) {
        self.0.extend_from_slice(&other.0);
    }

    /// Compact serialization: length prefix + packed pairs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.0.len() / 2 + 1);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Nibbles::encode`] to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u16).to_le_bytes());
        for pair in self.0.chunks(2) {
            let hi = pair[0] << 4;
            let lo = pair.get(1).copied().unwrap_or(0);
            out.push(hi | lo);
        }
    }

    /// Reads one [`Nibbles::encode`]d path off the front of `bytes` and
    /// returns it with the rest. `None` when `bytes` ends early or the
    /// unused low half of an odd path's last byte is not zero, so every
    /// path has exactly one encoding.
    pub fn decode(bytes: &[u8]) -> Option<(Self, &[u8])> {
        let (len, rest) = bytes.split_first_chunk::<2>()?;
        let len = usize::from(u16::from_le_bytes(*len));
        let (packed, rest) = rest.split_at_checked(len.div_ceil(2))?;
        let mut nibbles = Vec::with_capacity(packed.len() * 2);
        for byte in packed {
            nibbles.push(byte >> 4);
            nibbles.push(byte & 0xf);
        }
        if nibbles.len() > len && nibbles.pop() != Some(0) {
            return None;
        }
        Some((Self(nibbles), rest))
    }
}

impl fmt::Debug for Nibbles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nibbles(")?;
        for n in &self.0 {
            write!(f, "{n:x}")?;
        }
        f.write_str(")")
    }
}

impl From<&[u8]> for Nibbles {
    fn from(key: &[u8]) -> Self {
        Self::from_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_key_splits_each_byte_high_nibble_first() {
        let key = [0x12u8, 0x34, 0xFF, 0x00];
        let nibbles = Nibbles::from_key(&key);
        assert_eq!(nibbles.len(), 8);
        assert_eq!(nibbles.as_slice(), [1, 2, 3, 4, 0xF, 0xF, 0, 0]);
    }

    #[test]
    fn common_prefix() {
        let a = Nibbles::from_nibbles(vec![1, 2, 3, 4]);
        assert_eq!(a.common_prefix_len(&[1, 2, 9]), 2);
        assert_eq!(a.common_prefix_len(&[]), 0);
        assert_eq!(a.common_prefix_len(&[1, 2, 3, 4, 5]), 4);
    }

    #[test]
    fn slice_and_push() {
        let a = Nibbles::from_nibbles(vec![1, 2, 3, 4]);
        let mut b = a.slice(1, 3);
        assert_eq!(b.as_slice(), &[2, 3]);
        b.push(0xf);
        assert_eq!(b.as_slice(), &[2, 3, 0xf]);
    }

    #[test]
    #[should_panic(expected = "nibble out of range")]
    fn rejects_big_nibble() {
        Nibbles::from_nibbles(vec![16]);
    }

    #[test]
    fn decode_inverts_encode_and_refuses_everything_else() {
        for nibbles in [vec![], vec![7], vec![1, 0], vec![0xf, 0, 0xa], vec![3; 64]] {
            let path = Nibbles::from_nibbles(nibbles);
            let mut bytes = path.encode();
            bytes.extend_from_slice(b"rest");
            assert_eq!(Nibbles::decode(&bytes), Some((path.clone(), &b"rest"[..])));
            let exact = path.encode();
            assert_eq!(Nibbles::decode(&exact[..exact.len() - 1]), None);
        }
        // An odd path whose padding half-byte is set has no preimage.
        assert_eq!(Nibbles::decode(&[1, 0, 0x7f]), None);
        assert_eq!(Nibbles::decode(&[0xff, 0xff, 0]), None);
    }

    #[test]
    fn json_paths_are_checked_like_constructed_ones() {
        let path = Nibbles::from_nibbles(vec![0, 9, 15]);
        let text = serde_json::to_string(&path).unwrap();
        assert_eq!(text, "[0,9,15]");
        assert_eq!(serde_json::from_str::<Nibbles>(&text).unwrap(), path);
        assert!(serde_json::from_str::<Nibbles>("[0,16]").is_err());
        assert!(serde_json::from_str::<Nibbles>("[31]").is_err());
    }

    #[test]
    fn encode_distinguishes_lengths() {
        // [1] vs [1, 0] pack to the same byte but differ in the length
        // prefix — encodings must differ.
        let a = Nibbles::from_nibbles(vec![1]).encode();
        let b = Nibbles::from_nibbles(vec![1, 0]).encode();
        assert_ne!(a, b);
    }
}
