//! Constant-time comparison helpers, and the one zeroing primitive.
//!
//! Signature matching during hidden-file lookup compares attacker-influenced
//! bytes against a secret-derived value; doing that with early-exit `==`
//! would leak how many leading bytes matched.  These helpers compare entire
//! slices regardless of where the first difference occurs.
//!
//! [`zeroize`] is how every key schedule, derived key and cached plaintext
//! buffer in the workspace is wiped before its memory is freed.

/// Compare two byte slices in time dependent only on their lengths.
/// Returns `false` immediately if the lengths differ (length is not secret).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Constant-time selection: returns `if choice { a } else { b }` for byte
/// values without branching on `choice`.
pub fn ct_select(choice: bool, a: u8, b: u8) -> u8 {
    let mask = (choice as u8).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// Overwrite `buf` with zeros in a way the optimiser cannot elide.  Used
/// for every dropped key schedule and derived key (and, through
/// `stegfs_core::readcache::zeroize`, every evicted or purged plaintext
/// buffer).
pub fn zeroize<T: Copy + Default>(buf: &mut [T]) {
    buf.fill(T::default());
    // The black_box makes the zeroed contents observable, so the fill above
    // cannot be removed as a dead store ahead of the deallocation.
    std::hint::black_box(&*buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroize_clears_bytes_and_words() {
        let mut bytes = [0xa5u8; 48];
        zeroize(&mut bytes);
        assert_eq!(bytes, [0u8; 48]);
        let mut words = vec![u32::MAX; 60];
        zeroize(&mut words);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abc", b""));
        // Differences at every position are detected, not just the first.
        assert!(!ct_eq(b"xbc", b"abc"));
        assert!(!ct_eq(b"abx", b"abc"));
    }

    #[test]
    fn select() {
        assert_eq!(ct_select(true, 0xaa, 0x55), 0xaa);
        assert_eq!(ct_select(false, 0xaa, 0x55), 0x55);
    }
}
