//! Request trace identity.
//!
//! A [`TraceId`] is 16 opaque bytes identifying one request end to end:
//! clients may mint one and send it on the wire (protocol v2 frames), or
//! the server mints one at ingress. The id labels the request's JSONL
//! trace events and its flight-recorder entry, so a slow request spotted
//! in `ibrar-top` can be grepped straight to its per-stage breakdown.
//!
//! Generation needs no RNG dependency: a per-process seed (wall clock ⊕
//! pid) and an atomic counter feed two rounds of SplitMix64, which is
//! collision-free within a process by construction (the counter) and
//! collision-resistant across processes (the seed).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A 16-byte request trace identifier, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId([u8; 16]);

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceId {
    /// Mints a fresh process-unique id.
    pub fn generate() -> Self {
        static SEED: AtomicU64 = AtomicU64::new(0);
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut seed = SEED.load(Ordering::Relaxed);
        if seed == 0 {
            let wall = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED);
            seed = splitmix64(wall ^ (u64::from(std::process::id()) << 32)) | 1;
            SEED.store(seed, Ordering::Relaxed);
        }
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(seed ^ n);
        let lo = splitmix64(hi ^ n.rotate_left(32));
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&hi.to_le_bytes());
        bytes[8..].copy_from_slice(&lo.to_le_bytes());
        TraceId(bytes)
    }

    /// Wraps raw bytes (the wire decoder).
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        TraceId(bytes)
    }

    /// The raw bytes (the wire encoder).
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Parses the 32-hex-digit rendering.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let mut bytes = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let hex = std::str::from_utf8(chunk).ok()?;
            bytes[i] = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(TraceId(bytes))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::generate();
            assert_ne!(id.as_bytes(), &[0u8; 16]);
            assert!(seen.insert(*id.as_bytes()), "duplicate id {id}");
        }
    }

    #[test]
    fn hex_round_trips() {
        let id = TraceId::generate();
        let hex = id.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(TraceId::from_hex(&hex), Some(id));
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex(&hex[..30]), None);
    }

    #[test]
    fn bytes_round_trip() {
        let id = TraceId::generate();
        assert_eq!(TraceId::from_bytes(*id.as_bytes()), id);
    }
}
