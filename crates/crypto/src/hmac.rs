//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! StegFS uses HMAC in two supporting roles: authenticating backup images so
//! that a corrupted restore is detected rather than silently applied, and as
//! the pseudorandom function inside the key-derivation routine in [`crate::kdf`].

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Compute `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hmac = HmacSha256::new(key);
    hmac.update(message);
    hmac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// The key is absorbed once, in [`HmacSha256::new`]: both the inner
/// (`key ⊕ ipad`) and the outer (`key ⊕ opad`) SHA-256 states are
/// compressed up front, so [`crate::kdf`] can run each PBKDF2 iteration
/// straight from the keyed states in two compressions instead of four
/// (RFC 8018's pre-keyed PRF).
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Start a new MAC computation keyed by `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, message: &[u8]) {
        self.inner.update(message);
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        self.outer.finish_after_block(&inner_digest)
    }

    /// The tag of a 32-byte `message` under this key, leaving `self`
    /// untouched: one compression per half, straight from the pre-keyed
    /// states.  Only for a keyed value nothing was [`update`](Self::update)d
    /// into — the PBKDF2 inner loop's shape.
    pub(crate) fn tag_digest(&self, message: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finish_after_block(message);
        self.outer.finish_after_block(&inner_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Test vectors from RFC 4231.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"backup-auth-key";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 251) as u8).collect();
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, &msg));
    }

    #[test]
    fn tag_digest_matches_oneshot() {
        for key in [&b"k"[..], &[0x11u8; 64][..], &[0x22u8; 65][..]] {
            let keyed = HmacSha256::new(key);
            let msg = [0x3cu8; DIGEST_LEN];
            assert_eq!(keyed.tag_digest(&msg), hmac_sha256(key, &msg));
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k1", b"msh"));
    }
}
