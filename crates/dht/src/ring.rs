//! The Chord ring: successor ownership, finger tables, routed lookups.

use crate::hash::{chunk_key, node_id};
use std::collections::BTreeMap;

/// A provider's name on the ring.
pub type NodeName = String;

/// Number of finger-table entries (identifier space is 2⁶⁴).
const M: u32 = 64;

/// Result of a routed lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTrace {
    /// The node that owns the key.
    pub owner: NodeName,
    /// Nodes visited between the starting node and the owner (inclusive of
    /// the owner, exclusive of the start).
    pub hops: usize,
    /// The visited ring ids, for diagnostics.
    pub path: Vec<u64>,
}

/// A deterministic, globally-viewed Chord ring.
///
/// The simulation keeps the full membership in one structure (we are
/// modelling the *client-side mapping*, not an asynchronous network), but
/// routed lookups honour Chord's rules: each step may only use the current
/// node's finger table, so hop counts match the real protocol's
/// O(log n) behaviour.
#[derive(Debug, Clone, Default)]
pub struct ChordRing {
    /// ring id → node name; multiple entries per node when virtual nodes
    /// are enabled.
    ring: BTreeMap<u64, NodeName>,
    /// virtual replicas per node.
    replicas: u32,
}

impl ChordRing {
    /// Creates an empty ring with `replicas` virtual nodes per member
    /// (replicas ≥ 1; more replicas smooth key distribution).
    pub fn new(replicas: u32) -> Self {
        assert!(replicas >= 1, "need at least one virtual node per member");
        ChordRing {
            ring: BTreeMap::new(),
            replicas,
        }
    }

    /// Adds a node; returns false if it was already present.
    pub fn join(&mut self, name: &str) -> bool {
        if self.contains(name) {
            return false;
        }
        for r in 0..self.replicas {
            self.ring.insert(node_id(name, r), name.to_string());
        }
        true
    }

    /// Removes a node; returns false if it was not present.
    pub fn leave(&mut self, name: &str) -> bool {
        if !self.contains(name) {
            return false;
        }
        for r in 0..self.replicas {
            self.ring.remove(&node_id(name, r));
        }
        true
    }

    /// Whether the node is a member.
    pub fn contains(&self, name: &str) -> bool {
        self.ring.contains_key(&node_id(name, 0))
    }

    /// Current member count (distinct names).
    pub fn len(&self) -> usize {
        let mut names: Vec<&NodeName> = self.ring.values().collect();
        names.sort();
        names.dedup();
        names.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Successor node of a ring position (wrapping).
    fn successor(&self, id: u64) -> Option<(u64, &NodeName)> {
        self.ring
            .range(id..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(&k, v)| (k, v))
    }

    /// The node that owns a ⟨filename, serial⟩ chunk key — the client-side
    /// replacement for the Chunk Table's provider column.
    pub fn owner(&self, filename: &str, serial: u32) -> Option<&NodeName> {
        self.successor(chunk_key(filename, serial)).map(|(_, n)| n)
    }

    /// The node that owns a raw ring id.
    pub fn owner_of_id(&self, id: u64) -> Option<&NodeName> {
        self.successor(id).map(|(_, n)| n)
    }

    /// Every member once, in the order a clockwise walk from the
    /// ⟨filename, serial⟩ key meets them (wrapping): the first is
    /// [`owner`](Self::owner), the *i*-th the *i*-th distinct successor.
    pub fn successors(&self, filename: &str, serial: u32) -> Vec<&NodeName> {
        let key = chunk_key(filename, serial);
        let mut walk: Vec<&NodeName> = Vec::new();
        for name in self
            .ring
            .range(key..)
            .chain(self.ring.range(..key))
            .map(|(_, n)| n)
        {
            if !walk.contains(&name) {
                walk.push(name);
            }
        }
        walk
    }

    /// Routed Chord lookup from `start`'s first virtual node, counting hops.
    ///
    /// At each step the current node forwards to the closest finger
    /// preceding the key (classic `closest_preceding_node`), or to its
    /// successor when no finger helps; the lookup ends at the key's owner.
    pub fn lookup(&self, start: &str, filename: &str, serial: u32) -> Option<LookupTrace> {
        if !self.contains(start) || self.ring.is_empty() {
            return None;
        }
        let key = chunk_key(filename, serial);
        let (owner_id, owner) = self.successor(key)?;
        let owner = owner.clone();

        let mut current = node_id(start, 0);
        let mut current_name = start.to_string();
        let mut path = Vec::new();
        let mut hops = 0usize;
        // Forwarding between two virtual nodes of the same physical member
        // is a local operation, so only name-changing forwards count as hops.
        let forward = |to_id: u64,
                       to_name: &NodeName,
                       current_name: &mut String,
                       hops: &mut usize,
                       path: &mut Vec<u64>| {
            if to_name != current_name {
                *hops += 1;
                *current_name = to_name.clone();
            }
            path.push(to_id);
        };
        // Bound iterations defensively; Chord guarantees ≤ M routing steps.
        for _ in 0..(M as usize + self.ring.len()) {
            if current == owner_id {
                break;
            }
            // Does current's successor own the key? (The "found" condition:
            // key ∈ (current, successor].)
            let (succ_id, succ_name) = self.successor(current.wrapping_add(1))?;
            if in_half_open_arc(key, current, succ_id) {
                if succ_id != current {
                    let succ_name = succ_name.clone();
                    forward(succ_id, &succ_name, &mut current_name, &mut hops, &mut path);
                }
                current = succ_id;
                break;
            }
            // Otherwise forward to the closest preceding finger.
            let next = self.closest_preceding(current, key);
            let next = if next == current { succ_id } else { next };
            let next_name = self.ring[&next].clone();
            forward(next, &next_name, &mut current_name, &mut hops, &mut path);
            current = next;
        }
        debug_assert_eq!(current, owner_id, "lookup must terminate at owner");
        Some(LookupTrace { owner, hops, path })
    }

    /// Chord's `closest_preceding_node`: the finger of `current` whose id is
    /// the largest in the open arc (current, key).
    fn closest_preceding(&self, current: u64, key: u64) -> u64 {
        for i in (0..M).rev() {
            let finger_start = current.wrapping_add(1u64.wrapping_shl(i));
            if let Some((fid, _)) = self.successor(finger_start) {
                if in_open_arc(fid, current, key) {
                    return fid;
                }
            }
        }
        current
    }

    /// Assigns every key in `keys` to its owner — used to measure how many
    /// chunks remap when a provider joins or leaves.
    pub fn assign_all<'a>(&self, keys: impl IntoIterator<Item = (&'a str, u32)>) -> Vec<NodeName> {
        keys.into_iter()
            .map(|(f, s)| {
                self.owner(f, s)
                    .expect("assign_all on an empty ring")
                    .clone()
            })
            .collect()
    }
}

/// `x ∈ (lo, hi]` on the ring.
fn in_half_open_arc(x: u64, lo: u64, hi: u64) -> bool {
    if lo < hi {
        x > lo && x <= hi
    } else if lo > hi {
        x > lo || x <= hi
    } else {
        true // full circle
    }
}

/// `x ∈ (lo, hi)` on the ring.
fn in_open_arc(x: u64, lo: u64, hi: u64) -> bool {
    if lo < hi {
        x > lo && x < hi
    } else if lo > hi {
        x > lo || x < hi
    } else {
        x != lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: usize) -> ChordRing {
        let mut r = ChordRing::new(4);
        for i in 0..n {
            r.join(&format!("provider-{i}"));
        }
        r
    }

    #[test]
    fn join_leave_contains() {
        let mut r = ChordRing::new(2);
        assert!(r.is_empty());
        assert!(r.join("AWS"));
        assert!(!r.join("AWS"));
        assert!(r.contains("AWS"));
        assert_eq!(r.len(), 1);
        assert!(r.leave("AWS"));
        assert!(!r.leave("AWS"));
        assert!(r.is_empty());
    }

    #[test]
    fn owner_is_deterministic_and_total() {
        let r = ring_of(8);
        let o1 = r.owner("file1", 0).unwrap().clone();
        let o2 = r.owner("file1", 0).unwrap().clone();
        assert_eq!(o1, o2);
        // Every key has an owner.
        for s in 0..100 {
            assert!(r.owner("somefile", s).is_some());
        }
    }

    #[test]
    fn successor_walk_starts_at_the_owner_and_meets_every_member_once() {
        let r = ring_of(8);
        for s in 0..50 {
            let walk = r.successors("walk", s);
            assert_eq!(walk[0], r.owner("walk", s).unwrap(), "serial {s}");
            let mut names: Vec<&NodeName> = walk.clone();
            names.sort();
            names.dedup();
            assert_eq!((walk.len(), names.len()), (8, 8), "serial {s}");
        }
        assert!(ChordRing::new(1).successors("f", 0).is_empty());
    }

    #[test]
    fn empty_ring_has_no_owner() {
        let r = ChordRing::new(1);
        assert!(r.owner("f", 0).is_none());
        assert!(r.lookup("nope", "f", 0).is_none());
    }

    #[test]
    fn lookup_agrees_with_owner() {
        let r = ring_of(16);
        for s in 0..200u32 {
            let trace = r.lookup("provider-0", "data.bin", s).unwrap();
            assert_eq!(&trace.owner, r.owner("data.bin", s).unwrap(), "serial {s}");
        }
    }

    #[test]
    fn lookup_from_every_start_agrees() {
        let r = ring_of(10);
        let expect = r.owner("file.x", 7).unwrap().clone();
        for i in 0..10 {
            let t = r.lookup(&format!("provider-{i}"), "file.x", 7).unwrap();
            assert_eq!(t.owner, expect, "start provider-{i}");
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let r = ring_of(64);
        let mut total_hops = 0usize;
        let mut max_hops = 0usize;
        let n_lookups = 500;
        for s in 0..n_lookups {
            let t = r.lookup("provider-0", "bulk", s).unwrap();
            total_hops += t.hops;
            max_hops = max_hops.max(t.hops);
        }
        let avg = total_hops as f64 / n_lookups as f64;
        // With 64 nodes * 4 vnodes = 256 ring points, Chord predicts
        // ~0.5*log2(256) = 4 hops average; allow generous slack.
        assert!(avg < 12.0, "average hops {avg} too high");
        assert!(max_hops <= 64, "max hops {max_hops}");
    }

    #[test]
    fn keys_spread_across_nodes() {
        let r = ring_of(10);
        let mut seen = std::collections::HashSet::new();
        for s in 0..500 {
            seen.insert(r.owner("spread", s).unwrap().clone());
        }
        assert!(seen.len() >= 8, "only {} of 10 nodes used", seen.len());
    }

    #[test]
    fn leave_remaps_only_lost_nodes_keys() {
        let mut r = ring_of(10);
        let keys: Vec<(String, u32)> = (0..1000).map(|s| ("remap".to_string(), s)).collect();
        let key_refs: Vec<(&str, u32)> = keys.iter().map(|(f, s)| (f.as_str(), *s)).collect();
        let before = r.assign_all(key_refs.iter().copied());
        r.leave("provider-3");
        let after = r.assign_all(key_refs.iter().copied());
        let mut moved = 0;
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                // Only keys previously owned by provider-3 may move.
                assert_eq!(b, "provider-3", "key moved from {b} to {a}");
                moved += 1;
            }
        }
        // provider-3 owned roughly 1/10 of the keys.
        assert!(moved > 0 && moved < 1000 / 3, "moved {moved}");
    }

    #[test]
    fn join_remaps_bounded_fraction() {
        let mut r = ring_of(10);
        let keys: Vec<(String, u32)> = (0..1000).map(|s| ("grow".to_string(), s)).collect();
        let key_refs: Vec<(&str, u32)> = keys.iter().map(|(f, s)| (f.as_str(), *s)).collect();
        let before = r.assign_all(key_refs.iter().copied());
        r.join("provider-new");
        let after = r.assign_all(key_refs.iter().copied());
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        // Consistent hashing: ~1/11 of keys move, never a wholesale reshuffle.
        assert!(moved < 1000 / 3, "moved {moved}");
        // All moved keys must have moved TO the new node.
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(a, "provider-new");
            }
        }
    }

    #[test]
    fn single_node_owns_everything_zero_hops() {
        let mut r = ChordRing::new(3);
        r.join("only");
        for s in 0..50 {
            let t = r.lookup("only", "f", s).unwrap();
            assert_eq!(t.owner, "only");
            assert_eq!(t.hops, 0, "serial {s}");
        }
    }

    #[test]
    fn arc_membership_helpers() {
        assert!(in_half_open_arc(5, 3, 7));
        assert!(in_half_open_arc(7, 3, 7));
        assert!(!in_half_open_arc(3, 3, 7));
        // wrapping arc
        assert!(in_half_open_arc(1, u64::MAX - 1, 3));
        assert!(!in_half_open_arc(u64::MAX - 1, u64::MAX - 1, 3));
        assert!(in_open_arc(2, 1, 3));
        assert!(!in_open_arc(3, 1, 3));
        assert!(in_open_arc(0, u64::MAX, 3));
        // degenerate full-circle arcs
        assert!(in_half_open_arc(9, 4, 4));
        assert!(in_open_arc(9, 4, 4));
        assert!(!in_open_arc(4, 4, 4));
    }
}
