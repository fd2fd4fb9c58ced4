//! The Internet checksum (RFC 1071) used by IPv4, TCP and UDP.
//!
//! One's-complement sum of 16-bit big-endian words, folded and inverted.
//! Implemented once here; the header modules compose it with their
//! pseudo-headers. A packet under construction is summed whole
//! ([`Checksum`]); a packet being rewritten has its stored checksum
//! patched for the words that changed ([`adjust`], RFC 1624); the traffic
//! generator sums the constant part of its frame once and folds in the
//! per-flow words. All three end in the same branch-free `fold`.

/// Accumulates the one's-complement sum over byte slices.
///
/// Use [`Checksum::push`] for each region (header, pseudo-header,
/// payload), then [`Checksum::finish`] for the final inverted value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
    /// True when an odd byte is pending pairing with the next region's
    /// first byte (regions may have odd lengths, e.g. a payload).
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a byte region to the running sum.
    pub fn push(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = bytes.split_first() {
                self.add_word(u16::from_be_bytes([hi, lo]));
                bytes = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            self.add_word(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [odd] = chunks.remainder() {
            self.pending = Some(*odd);
        }
    }

    /// Adds a single 16-bit word (already in host order) to the sum.
    pub fn push_word(&mut self, word: u16) {
        assert!(
            self.pending.is_none(),
            "push_word with an odd byte pending would misalign the sum"
        );
        self.add_word(word);
    }

    fn add_word(&mut self, word: u16) {
        self.sum += u32::from(word);
    }

    /// Folds the carries and returns the inverted checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            // RFC 1071: a trailing odd byte is padded with a zero byte.
            self.add_word(u16::from_be_bytes([hi, 0]));
        }
        !fold(self.sum)
    }
}

/// Folds a 32-bit one's-complement accumulator to 16 bits (end-around
/// carry). Two unconditional folds settle any `u32` — the first leaves at
/// most `0x1FFFE`, the second at most `0xFFFF` — with no data-dependent
/// branch. Zero comes out only for a zero sum.
#[inline(always)]
pub(crate) fn fold(sum: u32) -> u16 {
    let sum = (sum & 0xFFFF) + (sum >> 16);
    ((sum & 0xFFFF) + (sum >> 16)) as u16
}

/// Patches the stored checksum `check` for covered 16-bit words that
/// changed from `old[i]` to `new[i]` (RFC 1624, eqn. 3:
/// `HC' = ~(~HC + ~m + m')`), without reading the rest of the data.
///
/// The result verifies exactly when `check` did: a middlebox that
/// rewrites addresses this way forwards a corrupted datagram still
/// corrupted, where zero-and-recompute would launder it. Against a full
/// recompute over intact data the result is equal, or differs only in
/// the sign of one's-complement zero (`0x0000` vs `0xFFFF`), which every
/// verifier treats alike.
///
/// # Panics
///
/// Panics if `old` and `new` differ in length, or hold more words than
/// the 32-bit accumulator can sum without overflow (32 767).
#[inline]
pub fn adjust(check: u16, old: &[u16], new: &[u16]) -> u16 {
    assert_eq!(old.len(), new.len(), "one new word per old word");
    assert!(old.len() < 1 << 15, "too many words for a 32-bit sum");
    let mut sum = u32::from(!check);
    for (&m, &m_new) in old.iter().zip(new) {
        sum += u32::from(!m) + u32::from(m_new);
    }
    !fold(sum)
}

/// Computes the checksum of a single contiguous region.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.push(bytes);
    c.finish()
}

/// Verifies a region whose checksum field is already filled in: the folded
/// sum over the whole region must be zero (i.e. `checksum` returns 0).
pub fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn empty_region_checksums_to_ffff() {
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xAB]), !0xAB00);
    }

    #[test]
    fn split_regions_equal_contiguous() {
        let data: Vec<u8> = (0..=255u8).collect();
        let whole = checksum(&data);
        for split in [0usize, 1, 7, 128, 255, 256] {
            let mut c = Checksum::new();
            c.push(&data[..split]);
            c.push(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn odd_split_rejoins() {
        // Splitting at an odd offset exercises the pending-byte pairing.
        let data = [1u8, 2, 3, 4, 5, 6];
        let whole = checksum(&data);
        let mut c = Checksum::new();
        c.push(&data[..3]);
        c.push(&data[3..]);
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn filled_checksum_verifies() {
        // Build a fake header, insert its checksum, verify sums to zero.
        let mut hdr = vec![
            0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        hdr.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let sum = checksum(&hdr);
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        assert!(verify(&hdr));
    }

    #[test]
    fn adjust_matches_recompute_on_the_rfc1624_example() {
        // RFC 1624 §4: HC = 0xDD2F, m = 0x5555 -> m' = 0x3285 gives 0x0000.
        assert_eq!(adjust(0xDD2F, &[0x5555], &[0x3285]), 0x0000);

        let mut data = [
            0x45u8, 0x00, 0x00, 0x28, 0x12, 0x34, 0x40, 0x11, 10, 0, 0, 1,
        ];
        let before = checksum(&data);
        data[8..12].copy_from_slice(&[192, 168, 7, 9]);
        assert_eq!(
            adjust(before, &[0x0A00, 0x0001], &[0xC0A8, 0x0709]),
            checksum(&data)
        );
        // An unchanged word is a no-op.
        assert_eq!(adjust(before, &[0x1234], &[0x1234]), before);
    }

    #[test]
    fn push_empty_after_odd_keeps_pending() {
        let mut c = Checksum::new();
        c.push(&[0xAB]);
        c.push(&[]);
        c.push(&[0xCD]);
        assert_eq!(c.finish(), !0xABCD);
    }

    #[test]
    #[should_panic(expected = "odd byte pending")]
    fn push_word_rejects_misalignment() {
        let mut c = Checksum::new();
        c.push(&[0xAB]);
        c.push_word(0x1234);
    }
}
