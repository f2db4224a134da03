//! Client-side encryption composed with fragmentation (§VII-E).
//!
//! "Concerned clients can also use encryption along with fragmentation.
//! But encryption is not an alternative to fragmentation, rather it is a
//! complement. Clients can also use partial encryption along with
//! fragmentation, that involves partitioning data and encrypting a portion
//! of it."
//!
//! [`EncryptedClient`] wraps a [`CloudDataDistributor`] **on the client
//! side**: bytes are encrypted before they ever reach the distributor (who,
//! being a third party, never sees the key) and decrypted after retrieval.
//! Both full and partial (suffix-fraction) encryption are supported; the
//! per-file mode and the nonce of its latest put are remembered in a small
//! client-local table.

use crate::distributor::{CloudDataDistributor, PutOptions, PutReceipt};
use crate::{CoreError, PrivacyLevel, Result};
use fragcloud_crypto::{decrypt_ranges, encrypt_ranges, ByteRange, ChaCha20};
use std::collections::HashMap;

/// How much of each file is encrypted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EncryptionMode {
    /// Encrypt every byte.
    Full,
    /// Encrypt only the trailing fraction (0, 1] of the file — the
    /// "sensitive portion" of §VII-E's partial-encryption suggestion.
    PartialSuffix(f64),
}

/// A client-side encrypting wrapper around the distributor.
pub struct EncryptedClient<'a> {
    distributor: &'a CloudDataDistributor,
    key: [u8; 32],
    /// Puts made under `key`: the last 4 bytes of each put's nonce, so no
    /// two puts share a ChaCha20 keystream while this table lives — not
    /// even a name put again after a remove.
    puts: u32,
    /// filename → (mode, encrypted range, nonce) of its latest put, so
    /// decryption is self-contained.
    modes: HashMap<String, (EncryptionMode, ByteRange, [u8; 12])>,
}

impl<'a> EncryptedClient<'a> {
    /// Wraps a distributor with a client-held 256-bit key.
    pub fn new(distributor: &'a CloudDataDistributor, key: [u8; 32]) -> Self {
        EncryptedClient {
            distributor,
            key,
            puts: 0,
            modes: HashMap::new(),
        }
    }

    /// Encrypts (per `mode`) and uploads through the distributor, under a
    /// nonce no earlier put of this client used. [`CoreError::InvalidConfig`]
    /// for a [`PartialSuffix`](EncryptionMode::PartialSuffix) fraction
    /// outside (0, 1], or once this key's 2³² nonces are spent.
    #[allow(clippy::too_many_arguments)]
    pub fn put_file(
        &mut self,
        client: &str,
        password: &str,
        filename: &str,
        data: &[u8],
        pl: PrivacyLevel,
        mode: EncryptionMode,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        let start = match mode {
            EncryptionMode::Full => 0,
            EncryptionMode::PartialSuffix(fraction) if fraction > 0.0 && fraction <= 1.0 => {
                data.len() - (data.len() as f64 * fraction) as usize
            }
            EncryptionMode::PartialSuffix(fraction) => {
                let detail = format!("PartialSuffix fraction {fraction} is outside (0, 1]");
                return Err(CoreError::InvalidConfig { detail });
            }
        };
        if self.puts == u32::MAX {
            let detail = "EncryptedClient: every nonce under this key is spent".into();
            return Err(CoreError::InvalidConfig { detail });
        }
        // The name's FNV hash, then the put count: no earlier put under
        // this key used it.
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&fragcloud_dht::hash::fnv1a(filename.as_bytes()).to_le_bytes());
        nonce[8..].copy_from_slice(&self.puts.to_le_bytes());
        self.puts += 1;
        let range = ByteRange::new(start, data.len());
        let mut payload = data.to_vec();
        encrypt_ranges(&ChaCha20::new(&self.key, &nonce), &mut payload, &[range]);
        let receipt = self
            .distributor
            .put_file_impl(client, password, filename, &payload, pl, opts)?;
        self.modes
            .insert(filename.to_string(), (mode, range, nonce));
        Ok(receipt)
    }

    /// Retrieves and decrypts a file uploaded through this wrapper.
    pub fn get_file(&self, client: &str, password: &str, filename: &str) -> Result<Vec<u8>> {
        let receipt = self.distributor.get_file_impl(client, password, filename)?;
        let mut data = receipt.data;
        if let Some((_, range, nonce)) = self.modes.get(filename) {
            if !range.is_empty() {
                decrypt_ranges(&ChaCha20::new(&self.key, nonce), &mut data, &[*range]);
            }
        }
        Ok(data)
    }

    /// The recorded mode for a file, if uploaded through this wrapper.
    pub fn mode_of(&self, filename: &str) -> Option<EncryptionMode> {
        self.modes.get(filename).map(|(m, ..)| *m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkSizeSchedule, DistributorConfig};
    use fragcloud_sim::{CloudProvider, CostLevel, ObjectStore, ProviderProfile};
    use std::sync::Arc;

    fn distributor() -> CloudDataDistributor {
        let fleet: Vec<Arc<CloudProvider>> = (0..6)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect();
        let d = CloudDataDistributor::try_new(
            fleet,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(64),
                stripe_width: 3,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        d
    }

    fn body(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn full_encryption_roundtrip_and_providers_see_ciphertext() {
        let d = distributor();
        let mut ec = EncryptedClient::new(&d, [7u8; 32]);
        let data = body(500);
        ec.put_file(
            "c",
            "pw",
            "f",
            &data,
            PrivacyLevel::High,
            EncryptionMode::Full,
            PutOptions::default(),
        )
        .unwrap();
        assert_eq!(ec.get_file("c", "pw", "f").unwrap(), data);
        assert_eq!(ec.mode_of("f"), Some(EncryptionMode::Full));
        // No provider-stored object contains any 32-byte window of the
        // plaintext.
        let window = &data[100..132];
        for p in d.providers() {
            for key in p.keys() {
                let stored = p.get(key).unwrap();
                assert!(
                    !stored.windows(32).any(|w| w == window),
                    "plaintext leaked to {}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn partial_encryption_roundtrip_and_prefix_visible() {
        let d = distributor();
        let mut ec = EncryptedClient::new(&d, [9u8; 32]);
        let data = body(400);
        ec.put_file(
            "c",
            "pw",
            "f",
            &data,
            PrivacyLevel::Moderate,
            EncryptionMode::PartialSuffix(0.25),
            PutOptions::default(),
        )
        .unwrap();
        assert_eq!(ec.get_file("c", "pw", "f").unwrap(), data);
        // The raw distributor view shows the cleartext prefix but not the
        // encrypted suffix.
        let raw = d.session("c", "pw").unwrap().get_file("f").unwrap().data;
        assert_eq!(&raw[..300], &data[..300]);
        assert_ne!(&raw[300..], &data[300..]);
    }

    #[test]
    fn different_files_use_different_nonces() {
        let d = distributor();
        let mut ec = EncryptedClient::new(&d, [1u8; 32]);
        let data = body(128);
        ec.put_file(
            "c",
            "pw",
            "a",
            &data,
            PrivacyLevel::Low,
            EncryptionMode::Full,
            PutOptions::default(),
        )
        .unwrap();
        ec.put_file(
            "c",
            "pw",
            "b",
            &data,
            PrivacyLevel::Low,
            EncryptionMode::Full,
            PutOptions::default(),
        )
        .unwrap();
        let ra = d.session("c", "pw").unwrap().get_file("a").unwrap().data;
        let rb = d.session("c", "pw").unwrap().get_file("b").unwrap().data;
        assert_ne!(ra, rb, "same plaintext must encrypt differently per file");
        assert_eq!(ec.get_file("c", "pw", "a").unwrap(), data);
        assert_eq!(ec.get_file("c", "pw", "b").unwrap(), data);
    }

    #[test]
    fn files_not_uploaded_through_wrapper_pass_through() {
        let d = distributor();
        let ec = EncryptedClient::new(&d, [1u8; 32]);
        let data = body(64);
        d.session("c", "pw")
            .unwrap()
            .put_file("plain", &data, PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        assert_eq!(ec.get_file("c", "pw", "plain").unwrap(), data);
        assert_eq!(ec.mode_of("plain"), None);
    }

    #[test]
    fn a_fraction_outside_the_unit_interval_is_invalid_config() {
        let d = distributor();
        let mut ec = EncryptedClient::new(&d, [1u8; 32]);
        for fraction in [0.0, -0.5, 1.5, f64::NAN] {
            let put = ec.put_file(
                "c",
                "pw",
                "f",
                &body(10),
                PrivacyLevel::Low,
                EncryptionMode::PartialSuffix(fraction),
                PutOptions::default(),
            );
            assert!(
                matches!(put, Err(CoreError::InvalidConfig { .. })),
                "{fraction}: {put:?}"
            );
        }
        assert_eq!(ec.mode_of("f"), None);
        assert!(d.session("c", "pw").unwrap().get_file("f").is_err());
    }

    #[test]
    fn a_name_put_again_gets_a_fresh_keystream() {
        // Two puts of one name under one key must not share a keystream:
        // the XOR of the two ciphertexts would be the XOR of the plaintexts.
        let d = distributor();
        let mut ec = EncryptedClient::new(&d, [3u8; 32]);
        let s = d.session("c", "pw").unwrap();
        let put = |ec: &mut EncryptedClient<'_>, data: &[u8]| {
            ec.put_file(
                "c",
                "pw",
                "f",
                data,
                PrivacyLevel::Low,
                EncryptionMode::Full,
                PutOptions::default(),
            )
            .unwrap();
            s.get_file("f").unwrap().data
        };
        let zeros = put(&mut ec, &[0u8; 2048]);
        s.remove_file("f").unwrap();
        let b = body(2048);
        let sealed = put(&mut ec, &b);
        let xor: Vec<u8> = zeros.iter().zip(&sealed).map(|(x, y)| x ^ y).collect();
        assert!(xor != b, "the second put reused the first one's keystream");
        assert_eq!(ec.get_file("c", "pw", "f").unwrap(), b);
    }
}
