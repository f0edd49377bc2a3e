//! The 32-byte digest type used throughout the workspace.

use core::fmt;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Length in bytes of a [`struct@Hash`].
const HASH_LEN: usize = 32;

/// A 32-byte digest (SHA-256 output).
///
/// Used as block ids, trie node hashes, packet commitments and commitment
/// roots. The all-zero hash is used as a sentinel "empty" value (e.g. the
/// root of an empty trie). Not to be confused with [`core::hash::Hash`]:
/// this is a value type holding a digest.
///
/// # Examples
///
/// ```
/// use sim_crypto::{sha256, Hash};
///
/// let digest = sha256(b"packet-1");
/// let hex = digest.to_hex();
/// assert_eq!(Hash::from_hex(&hex).unwrap(), digest);
/// assert_ne!(digest, Hash::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash([u8; HASH_LEN]);

// Serialized as a hex string: compact on the wire (transaction-size
// accounting depends on it) and readable in logs and fixtures.
impl Serialize for Hash {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let hex = self.hex_digits();
        serializer.serialize_str(core::str::from_utf8(&hex).expect("hex digits are ASCII"))
    }
}

impl<'de> Deserialize<'de> for Hash {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Hash::from_hex(&deserializer.de_string()?).map_err(D::Error::custom)
    }
}

impl Hash {
    /// Length in bytes of a digest.
    pub const LEN: usize = HASH_LEN;

    /// The all-zero hash, used as an "empty" sentinel.
    pub const ZERO: Hash = Hash([0; HASH_LEN]);

    /// Wraps raw bytes as a hash.
    pub const fn from_bytes(bytes: [u8; HASH_LEN]) -> Self {
        Self(bytes)
    }

    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; HASH_LEN] {
        &self.0
    }

    /// Consumes the hash and returns the raw bytes.
    pub const fn into_bytes(self) -> [u8; HASH_LEN] {
        self.0
    }

    /// Returns `true` if this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// The 64 lowercase hex digits, on the stack: hashes are the most
    /// common field on the wire, and serializing one should not allocate.
    fn hex_digits(&self) -> [u8; HASH_LEN * 2] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; HASH_LEN * 2];
        for (pair, byte) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = DIGITS[usize::from(byte >> 4)];
            pair[1] = DIGITS[usize::from(byte & 0xf)];
        }
        out
    }

    /// Lowercase hex encoding (64 characters).
    pub fn to_hex(&self) -> String {
        String::from_utf8(self.hex_digits().to_vec()).expect("hex digits are ASCII")
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHashError`] if the length is not 64 or a character is
    /// not a hex digit.
    pub fn from_hex(hex: &str) -> Result<Self, ParseHashError> {
        let bytes = hex.as_bytes();
        if bytes.len() != HASH_LEN * 2 {
            return Err(ParseHashError::BadLength(bytes.len()));
        }
        let mut out = [0u8; HASH_LEN];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi =
                (pair[0] as char).to_digit(16).ok_or(ParseHashError::BadDigit(pair[0] as char))?;
            let lo =
                (pair[1] as char).to_digit(16).ok_or(ParseHashError::BadDigit(pair[1] as char))?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Ok(Self(out))
    }

    /// The first eight hex characters — convenient for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl Default for Hash {
    fn default() -> Self {
        Self::ZERO
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; HASH_LEN]> for Hash {
    fn from(bytes: [u8; HASH_LEN]) -> Self {
        Self(bytes)
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({}…)", self.short())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Error parsing a [`struct@Hash`] from hex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseHashError {
    /// Input was not exactly 64 characters.
    BadLength(usize),
    /// Input contained a non-hex character.
    BadDigit(char),
}

impl fmt::Display for ParseHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLength(len) => write!(f, "expected 64 hex characters, got {len}"),
            Self::BadDigit(c) => write!(f, "invalid hex digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseHashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let h = crate::sha256(b"round trip");
        assert_eq!(Hash::from_hex(&h.to_hex()).unwrap(), h);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash::from_hex("abc"), Err(ParseHashError::BadLength(3)));
        let bad = "zz".repeat(32);
        assert_eq!(Hash::from_hex(&bad), Err(ParseHashError::BadDigit('z')));
    }

    #[test]
    fn serde_round_trips_as_hex() {
        let h = crate::sha256(b"serde");
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, format!("\"{}\"", h.to_hex()));
        assert_eq!(serde_json::from_str::<Hash>(&json).unwrap(), h);
        assert!(serde_json::from_str::<Hash>("\"xyz\"").is_err());
    }

    #[test]
    fn zero_is_default_and_zero() {
        assert!(Hash::default().is_zero());
        assert!(!crate::sha256(b"x").is_zero());
    }

    #[test]
    fn debug_is_short_and_nonempty() {
        let repr = format!("{:?}", Hash::ZERO);
        assert!(repr.starts_with("Hash(00000000"));
    }
}
