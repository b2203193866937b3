//! Key derivation from pass-phrases.
//!
//! The paper treats "access keys" (UAKs and FAKs) abstractly; in the Linux
//! implementation they are strings supplied by the user.  This module turns an
//! arbitrary-length pass-phrase plus a context label into fixed-length AES key
//! material using an iterated HMAC construction (PBKDF2-style with a single
//! block, which is all that is needed for a 32-byte output).
//!
//! The stretch keys the HMAC once per call and runs every iteration from
//! the pre-keyed states (RFC 8018 keeps the PRF's key fixed across the
//! iterations, so its ipad/opad compressions need not be repeated): each
//! iteration costs two SHA-256 compressions instead of four, and the output
//! is bit-identical to the textbook loop (pinned by the known-answer tests
//! below).

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of stretches run (see [`stretches`]).
static STRETCHES: AtomicU64 = AtomicU64::new(0);

/// Number of [`derive_key_with_iterations`] calls (key stretches) this
/// process has run so far.  A stretch is the expensive part of opening a
/// hidden object, so layers above derive each object's keys once and reuse
/// them; like `Aes::key_expansions`, this counter lets tests assert that
/// discipline by diffing it around an operation.
pub fn stretches() -> u64 {
    STRETCHES.load(Ordering::Relaxed)
}

/// Default iteration count.  Kept modest because the experiments create
/// thousands of hidden files; the construction is the interesting part, not
/// the work factor.
pub const DEFAULT_ITERATIONS: u32 = 1_000;

/// Derive a 32-byte key from `passphrase`, bound to `context` (for example
/// `"stegfs/fak"` or `"stegfs/uak-directory"`) and `salt`.
pub fn derive_key(passphrase: &[u8], context: &[u8], salt: &[u8]) -> [u8; DIGEST_LEN] {
    derive_key_with_iterations(passphrase, context, salt, DEFAULT_ITERATIONS)
}

/// Derive a 32-byte key with an explicit iteration count.
pub fn derive_key_with_iterations(
    passphrase: &[u8],
    context: &[u8],
    salt: &[u8],
    iterations: u32,
) -> [u8; DIGEST_LEN] {
    assert!(iterations > 0, "iteration count must be positive");
    STRETCHES.fetch_add(1, Ordering::Relaxed);

    // PBKDF2-HMAC-SHA256 with a single output block (block index 1), with the
    // context label folded into the salt.
    let mut salted = Vec::with_capacity(context.len() + 1 + salt.len() + 4);
    salted.extend_from_slice(context);
    salted.push(0u8);
    salted.extend_from_slice(salt);
    salted.extend_from_slice(&1u32.to_be_bytes());

    let prf = HmacSha256::new(passphrase);
    let mut u = hmac_sha256(passphrase, &salted);
    let mut output = u;
    for _ in 1..iterations {
        u = prf.tag_digest(&u);
        for i in 0..DIGEST_LEN {
            output[i] ^= u[i];
        }
    }
    output
}

/// Derive a sub-key from an existing 32-byte key and a purpose label, e.g.
/// separating the encryption key of a hidden file from its signature key.
pub fn derive_subkey(master: &[u8; DIGEST_LEN], purpose: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(master, purpose)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        let b = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        assert_eq!(a, b);
    }

    #[test]
    fn passphrase_context_salt_all_matter() {
        let base = derive_key(b"hunter2", b"stegfs/fak", b"salt");
        assert_ne!(base, derive_key(b"hunter3", b"stegfs/fak", b"salt"));
        assert_ne!(base, derive_key(b"hunter2", b"stegfs/uak", b"salt"));
        assert_ne!(base, derive_key(b"hunter2", b"stegfs/fak", b"pepper"));
    }

    #[test]
    fn iterations_change_output() {
        let a = derive_key_with_iterations(b"p", b"c", b"s", 1);
        let b = derive_key_with_iterations(b"p", b"c", b"s", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn pbkdf2_single_iteration_matches_hmac_definition() {
        // With one iteration the output is exactly HMAC(pass, context||0||salt||be32(1)).
        let out = derive_key_with_iterations(b"pw", b"ctx", b"salt", 1);
        let mut msg = Vec::new();
        msg.extend_from_slice(b"ctx");
        msg.push(0);
        msg.extend_from_slice(b"salt");
        msg.extend_from_slice(&1u32.to_be_bytes());
        assert_eq!(out, crate::hmac::hmac_sha256(b"pw", &msg));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Known answers recorded from the textbook (un-keyed-state) loop before
    /// the pre-keyed core replaced it; they also equal standard
    /// PBKDF2-HMAC-SHA256 with salt `context ‖ 0 ‖ salt`.  Every derived
    /// key on disk depends on these staying put.
    #[test]
    fn known_answers_are_pinned() {
        let p64: Vec<u8> = (0..64u8).collect();
        let p100: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(7)).collect();
        // (passphrase, context, salt, iterations, expected hex)
        type Case<'a> = (&'a [u8], &'a [u8], &'a [u8], u32, &'a str);
        let cases: [Case; 6] = [
            (
                b"hunter2",
                b"stegfs/object",
                b"u1:/budget",
                1,
                "6a185c1fa1106f324537f8f5d5c87d3d83ee6c420adc3f8e77b51bb0056bf9ef",
            ),
            (
                b"hunter2",
                b"stegfs/object",
                b"u1:/budget",
                1000,
                "696d7461c709878cc2e3df09031970e2a9976c9ce33c598742370142f36a9da6",
            ),
            // Exactly one SHA-256 block of passphrase: used as the key as is.
            (
                &p64,
                b"stegfs/object",
                b"stegfs:uak-directory",
                1,
                "0e4e91f05824a86b9fcf263cfed0b9b38d4c06698e8f11bf0b6fe217e876dcc8",
            ),
            (
                &p64,
                b"stegfs/object",
                b"stegfs:uak-directory",
                1000,
                "5e0825b8f0220e136e4d093b26a53a8c96c8f9b31642819c5db433d67c735723",
            ),
            // Longer than a block: HMAC hashes the key first.
            (
                &p100,
                b"stegfs/fak",
                b"salt",
                1,
                "dd0ef0c87fec6bed135ce19988f56d57206d801d6c08d2c4e172852a9ff5f982",
            ),
            (
                &p100,
                b"stegfs/fak",
                b"salt",
                1000,
                "2bb6f733325080746b2f10785ce2b159db973675a3daa3b9284ad0ac638a4f7c",
            ),
        ];
        for (pass, ctx, salt, iterations, want) in cases {
            assert_eq!(
                hex(&derive_key_with_iterations(pass, ctx, salt, iterations)),
                want,
                "passphrase of {} bytes, {iterations} iterations",
                pass.len()
            );
        }
    }

    #[test]
    fn stretch_counter_counts_calls() {
        // Other tests stretch concurrently, so the delta is a lower bound.
        let before = stretches();
        derive_key_with_iterations(b"p", b"c", b"s", 1);
        derive_key(b"p", b"c", b"s");
        assert!(stretches() - before >= 2);
    }

    #[test]
    fn subkeys_are_domain_separated() {
        let master = derive_key(b"pw", b"ctx", b"salt");
        let enc = derive_subkey(&master, b"encrypt");
        let sig = derive_subkey(&master, b"signature");
        assert_ne!(enc, sig);
        assert_ne!(enc, master);
    }

    #[test]
    #[should_panic(expected = "iteration count must be positive")]
    fn zero_iterations_rejected() {
        derive_key_with_iterations(b"p", b"c", b"s", 0);
    }
}
