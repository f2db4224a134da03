//! The S3-like object store: `put`, `get`, `delete` keyed by virtual id.
//!
//! §VI: "The methods described above can be implemented using put(), get()
//! and delete() method associated with SOAP or REST-based interface for S3."

use crate::types::VirtualId;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Errors an object store can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The key is not present.
    NotFound(VirtualId),
    /// The provider is offline (outage injection).
    Unavailable {
        /// Provider name, for diagnostics.
        provider: String,
    },
    /// A fault-injection probability was outside `[0, 1]` (or not a
    /// number at all).
    InvalidProbability,
    /// A fault or outage script referenced a provider index outside the
    /// fleet it was armed against.
    UnknownProvider {
        /// The out-of-range provider index.
        index: usize,
        /// Size of the fleet the script was armed against.
        fleet: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::Unavailable { provider } => {
                write!(f, "provider {provider} is unavailable")
            }
            StoreError::InvalidProbability => {
                write!(f, "failure probability out of range (want [0, 1])")
            }
            StoreError::UnknownProvider { index, fleet } => {
                write!(f, "provider index {index} out of range for fleet of {fleet}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Abstract S3-like object store.
pub trait ObjectStore: Send + Sync {
    /// Stores (or overwrites) an object under a key.
    fn put(&self, key: VirtualId, value: Bytes) -> Result<(), StoreError>;
    /// Fetches an object by key.
    fn get(&self, key: VirtualId) -> Result<Bytes, StoreError>;
    /// Removes an object; succeeds only if it existed.
    fn delete(&self, key: VirtualId) -> Result<(), StoreError>;
    /// Whether a key exists.
    fn contains(&self, key: VirtualId) -> bool;
    /// Number of stored objects.
    fn len(&self) -> usize;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total stored payload bytes.
    fn bytes_stored(&self) -> u64;
    /// Snapshot of all keys (diagnostics / attacker enumeration).
    fn keys(&self) -> Vec<VirtualId>;
}

/// Thread-safe in-memory object store.
///
/// `Bytes` payloads make `get` an O(1) refcount bump rather than a copy,
/// which keeps the distribution benchmarks measuring the *architecture*
/// (striping, placement, parallel fan-out) rather than memcpy.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: RwLock<HashMap<VirtualId, Bytes>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `key`, returning the bytes it replaced.
    pub fn replace(&self, key: VirtualId, value: Bytes) -> Option<Bytes> {
        self.map.write().insert(key, value)
    }
}

impl ObjectStore for MemoryStore {
    fn put(&self, key: VirtualId, value: Bytes) -> Result<(), StoreError> {
        self.replace(key, value);
        Ok(())
    }

    fn get(&self, key: VirtualId) -> Result<Bytes, StoreError> {
        self.map
            .read()
            .get(&key)
            .cloned()
            .ok_or(StoreError::NotFound(key))
    }

    fn delete(&self, key: VirtualId) -> Result<(), StoreError> {
        self.map
            .write()
            .remove(&key)
            .map(|_| ())
            .ok_or(StoreError::NotFound(key))
    }

    fn contains(&self, key: VirtualId) -> bool {
        self.map.read().contains_key(&key)
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn bytes_stored(&self) -> u64 {
        self.map.read().values().map(|v| v.len() as u64).sum()
    }

    fn keys(&self) -> Vec<VirtualId> {
        self.map.read().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = MemoryStore::new();
        let id = VirtualId(10986);
        s.put(id, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get(id).unwrap(), Bytes::from_static(b"hello"));
        assert!(s.contains(id));
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_stored(), 5);
    }

    #[test]
    fn get_missing_is_not_found() {
        let s = MemoryStore::new();
        assert_eq!(
            s.get(VirtualId(1)).unwrap_err(),
            StoreError::NotFound(VirtualId(1))
        );
    }

    #[test]
    fn overwrite_replaces() {
        let s = MemoryStore::new();
        let id = VirtualId(7);
        s.put(id, Bytes::from_static(b"aaa")).unwrap();
        s.put(id, Bytes::from_static(b"bb")).unwrap();
        assert_eq!(s.get(id).unwrap(), Bytes::from_static(b"bb"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_stored(), 2);
    }

    #[test]
    fn delete_semantics() {
        let s = MemoryStore::new();
        let id = VirtualId(3);
        s.put(id, Bytes::from_static(b"x")).unwrap();
        s.delete(id).unwrap();
        assert!(!s.contains(id));
        assert_eq!(s.delete(id).unwrap_err(), StoreError::NotFound(id));
        assert!(s.is_empty());
    }

    #[test]
    fn keys_snapshot() {
        let s = MemoryStore::new();
        for i in 0..5 {
            s.put(VirtualId(i), Bytes::from_static(b"k")).unwrap();
        }
        let mut keys = s.keys();
        keys.sort();
        assert_eq!(keys, (0..5).map(VirtualId).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let s = Arc::new(MemoryStore::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let id = VirtualId(t * 1000 + i);
                    s.put(id, Bytes::from(vec![t as u8; 16])).unwrap();
                    assert_eq!(s.get(id).unwrap().len(), 16);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 800);
    }
}
