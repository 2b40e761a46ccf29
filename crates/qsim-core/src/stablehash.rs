//! A platform-stable 64-bit hasher for content addressing.
//!
//! `std::collections::hash_map::DefaultHasher` (SipHash-1-3 today) is
//! deterministic within one std release but documented as "subject to
//! change", and its `Hasher::write_u64` default goes through native-
//! endian bytes. Cache keys that outlive a process — the serve layer's
//! plan and result caches, CSV-pinned benchmark identities — need a
//! hash that is the same on every platform and every toolchain, forever.
//!
//! [`StableHasher`] is that: a fixed, documented algorithm (xxHash-style
//! 64-bit word mixing with a strong avalanche finalizer) over a
//! little-endian byte stream. The multiword constants are the xxHash64
//! primes; the construction here is single-lane (inputs are short — a
//! few hundred bytes of circuit encoding — so the four-lane bulk loop
//! would buy nothing). It is **not** cryptographic: collisions can be
//! constructed on purpose, but 64-bit avalanche mixing makes accidental
//! collisions across distinct circuits as unlikely as any general-
//! purpose hash can make them.
//!
//! Stability contract, enforced by golden-value tests:
//!
//! - identical byte streams hash identically regardless of how they are
//!   chunked across `write` calls;
//! - `write_u64`/`write_u32`/… are defined as the little-endian byte
//!   encoding, independent of host endianness (`write_usize` widens to
//!   `u64` first, independent of pointer width);
//! - the algorithm never changes — a different algorithm is a different
//!   type.

/// xxHash64 prime constants.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// A deterministic, platform-stable 64-bit streaming hasher.
///
/// Implements [`std::hash::Hasher`], so the standard `write_*` surface
/// works — but prefer feeding it explicit encodings (as
/// `Circuit::content_hash` does) over `#[derive(Hash)]`, whose field
/// traversal order is a std implementation detail.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
    /// Total bytes consumed, folded in at finish so prefixes of a
    /// stream never collide with the stream itself.
    length: u64,
    /// Partial word not yet mixed: its `pending_len` (< 8) bytes in
    /// little-endian order, the bytes above them zero.
    pending: u64,
    pending_len: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A hasher with the fixed default seed.
    pub fn new() -> StableHasher {
        StableHasher::with_seed(0)
    }

    /// A hasher whose stream is domain-separated by `seed`.
    pub fn with_seed(seed: u64) -> StableHasher {
        StableHasher { state: seed.wrapping_add(P5), length: 0, pending: 0, pending_len: 0 }
    }

    /// Mix one full little-endian word into the state.
    fn mix(&mut self, word: u64) {
        self.state =
            (self.state ^ word.wrapping_mul(P2)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }

    /// Append the `n` (1..=8) little-endian bytes of `value`, whose bits
    /// above them are zero: shifted in behind the partial word as an
    /// integer, so a word written after an odd-length `write` costs a
    /// shift, not a byte copy.
    #[inline]
    fn push(&mut self, value: u64, n: usize) {
        self.length += n as u64;
        let shift = self.pending_len * 8;
        let word = self.pending | (value << shift);
        let filled = self.pending_len + n;
        if filled < 8 {
            self.pending = word;
            self.pending_len = filled;
            return;
        }
        self.mix(word);
        // The bytes of `value` that did not fit (none when `shift` is 0).
        self.pending = if shift == 0 { 0 } else { value >> (64 - shift) };
        self.pending_len = filled - 8;
    }
}

impl std::hash::Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")), 8);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.push(u64::from_le_bytes(tail), rest.len());
        }
    }

    fn finish(&self) -> u64 {
        let mut h = self.state;
        // Fold the partial word (zero-padded; the length fold below
        // disambiguates true zero bytes from padding).
        if self.pending_len > 0 {
            h = (h ^ self.pending.wrapping_mul(P2))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        h ^= self.length.wrapping_mul(P5);
        // xxHash64 avalanche finalizer.
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h
    }

    // Pin the integer encodings to little-endian: the Hasher defaults
    // go through to_ne_bytes, which would make hashes byte-order
    // dependent. An integer's value is its little-endian bytes, so the
    // fixed-width writes shift it in whole.
    fn write_u8(&mut self, i: u8) {
        self.push(u64::from(i), 1);
    }
    fn write_u16(&mut self, i: u16) {
        self.push(u64::from(i), 2);
    }
    fn write_u32(&mut self, i: u32) {
        self.push(u64::from(i), 4);
    }
    fn write_u64(&mut self, i: u64) {
        self.push(i, 8);
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Hash one byte slice with the default seed.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn chunking_does_not_change_the_hash() {
        let data: Vec<u8> = (0u16..257).map(|i| (i % 251) as u8).collect();
        let whole = hash_bytes(&data);
        for split in [1usize, 3, 7, 8, 9, 64, 250] {
            let mut h = StableHasher::new();
            for chunk in data.chunks(split) {
                h.write(chunk);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn prefixes_and_length_are_distinguished() {
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0"), hash_bytes(b"\0\0"));
        assert_ne!(hash_bytes(b"qsim"), hash_bytes(b"qsim\0"));
        // A u64 write is exactly its LE bytes.
        let mut a = StableHasher::new();
        a.write_u64(0x0807_0605_0403_0201);
        let mut b = StableHasher::new();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finish(), b.finish());
    }

    /// The integer path equals the byte path at every partial-word
    /// length a preceding write can leave.
    #[test]
    fn integer_writes_equal_their_le_bytes_at_every_pending_length() {
        let prefix = [0xa5u8, 0x01, 0xff, 0x00, 0x7e, 0x80, 0x3c];
        for pending in 0..8 {
            let mut ints = StableHasher::new();
            let mut bytes = StableHasher::new();
            ints.write(&prefix[..pending]);
            bytes.write(&prefix[..pending]);
            ints.write_u64(0xf1e2_d3c4_b5a6_9788);
            bytes.write(&0xf1e2_d3c4_b5a6_9788u64.to_le_bytes());
            assert_eq!(ints.finish(), bytes.finish(), "u64 after {pending} bytes");
            ints.write_u32(0x0102_8384);
            bytes.write(&0x0102_8384u32.to_le_bytes());
            ints.write_u16(0xbeef);
            bytes.write(&0xbeefu16.to_le_bytes());
            ints.write_u8(0x99);
            bytes.write(&[0x99]);
            ints.write_u128(u128::MAX - 5);
            bytes.write(&(u128::MAX - 5).to_le_bytes());
            assert_eq!(ints.finish(), bytes.finish(), "mixed widths after {pending} bytes");
        }
    }

    #[test]
    fn seeds_separate_domains() {
        assert_ne!(
            {
                let mut h = StableHasher::with_seed(1);
                h.write(b"x");
                h.finish()
            },
            {
                let mut h = StableHasher::with_seed(2);
                h.write(b"x");
                h.finish()
            }
        );
    }

    /// Golden values: the algorithm (and therefore every persisted cache
    /// key and benchmark identity derived from it) must never change.
    /// These constants were produced by this implementation and pin it
    /// across platforms, toolchains and refactors.
    #[test]
    fn golden_values_are_stable() {
        assert_eq!(hash_bytes(b""), GOLDEN_EMPTY);
        assert_eq!(hash_bytes(b"qsim"), GOLDEN_QSIM);
        let mut h = StableHasher::new();
        h.write_u64(42);
        h.write_u64(7);
        assert_eq!(h.finish(), GOLDEN_42_7);
    }

    // The empty-input value coincides with reference xxHash64's
    // (same seed path, same finalizer); the others exercise the
    // single-lane word mixing.
    const GOLDEN_EMPTY: u64 = 0xef46_db37_51d8_e999;
    const GOLDEN_QSIM: u64 = 0x5afa_a5e9_9ed2_068f;
    const GOLDEN_42_7: u64 = 0x25ba_9958_1b67_6364;

    #[test]
    #[ignore = "developer helper: prints golden values for pinning"]
    fn print_golden_values() {
        let mut h = StableHasher::new();
        h.write_u64(42);
        h.write_u64(7);
        println!(
            "empty: {:#018x}\nqsim:  {:#018x}\n42,7:  {:#018x}",
            hash_bytes(b""),
            hash_bytes(b"qsim"),
            h.finish()
        );
    }
}
