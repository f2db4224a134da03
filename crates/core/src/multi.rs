//! Multiple Cloud Data Distributors (Fig. 2).
//!
//! §IV-C: "a single data distributor can create a bottleneck in the system
//! as it can be the single point of failure. To eliminate this, multiple
//! distributors of cloud data can be introduced. In case of multiple data
//! distributors, for each client, a specific distributor will act as the
//! primary distributor that will upload data, whereas other distributors
//! will act as secondary distributors who can perform the data retrieval
//! operations."
//!
//! The group shares one logical table state (the distributors replicate it;
//! we model the replicated state as the shared [`CloudDataDistributor`]),
//! enforces the primary-for-writes rule, and supports failover promotion.

use crate::distributor::{CloudDataDistributor, GetReceipt, PutOptions, PutReceipt};
use crate::resilience::{RepairReport, ScrubReport};
use crate::{CoreError, PrivacyLevel, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One distributor node in the group.
struct Node {
    name: String,
    online: AtomicBool,
}

/// A group of distributors sharing replicated table state.
pub struct DistributorGroup {
    shared: Arc<CloudDataDistributor>,
    nodes: Vec<Node>,
    /// client → node index of its primary distributor.
    primary_of: RwLock<HashMap<String, usize>>,
}

impl DistributorGroup {
    /// Creates a group of `n` distributor nodes over shared state,
    /// rejecting an empty group: with zero nodes there is no primary to
    /// write through and no secondary to fail over to.
    pub fn try_new(shared: Arc<CloudDataDistributor>, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "a distributor group needs at least one node".to_string(),
            });
        }
        Ok(DistributorGroup {
            shared,
            nodes: (0..n)
                .map(|i| Node {
                    name: format!("distributor-{i}"),
                    online: AtomicBool::new(true),
                })
                .collect(),
            primary_of: RwLock::new(HashMap::new()),
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the group is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node name.
    pub fn node_name(&self, idx: usize) -> &str {
        &self.nodes[idx].name
    }

    /// Takes a distributor node down / up.
    pub fn set_node_online(&self, idx: usize, online: bool) {
        self.nodes[idx].online.store(online, Ordering::Release);
    }

    /// Whether a node is up.
    pub fn node_online(&self, idx: usize) -> bool {
        self.nodes[idx].online.load(Ordering::Acquire)
    }

    /// Registers a client with the given node as its primary.
    pub fn register_client(&self, primary_idx: usize, client: &str) -> Result<()> {
        self.check_up(primary_idx)?;
        self.shared.register_client(client)?;
        self.primary_of
            .write()
            .insert(client.to_string(), primary_idx);
        Ok(())
    }

    /// Adds a password via any online node (table state is replicated).
    pub fn add_password(
        &self,
        via: usize,
        client: &str,
        password: &str,
        pl: PrivacyLevel,
    ) -> Result<()> {
        self.check_up(via)?;
        self.shared.add_password(client, password, pl)
    }

    /// Index of a client's current primary.
    pub fn primary_of(&self, client: &str) -> Result<usize> {
        self.primary_of
            .read()
            .get(client)
            .copied()
            .ok_or_else(|| CoreError::UnknownClient(client.to_string()))
    }

    /// Uploads through a node; only the client's primary may upload.
    #[allow(clippy::too_many_arguments)]
    pub fn put_file(
        &self,
        via: usize,
        client: &str,
        password: &str,
        filename: &str,
        data: &[u8],
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        self.check_up(via)?;
        let primary = self.primary_of(client)?;
        if primary != via {
            return Err(CoreError::NotPrimary {
                client: client.to_string(),
                primary: self.nodes[primary].name.clone(),
            });
        }
        self.shared
            .put_file_impl(client, password, filename, data, pl, opts)
    }

    /// Retrieval may go through **any** online node (the secondaries'
    /// role in Fig. 2).
    pub fn get_file(
        &self,
        via: usize,
        client: &str,
        password: &str,
        filename: &str,
    ) -> Result<GetReceipt> {
        self.check_up(via)?;
        self.shared.get_file_impl(client, password, filename)
    }

    /// Promotes the lowest-indexed online node to primary for a client
    /// whose primary failed. Returns the new primary index.
    pub fn failover(&self, client: &str) -> Result<usize> {
        let current = self.primary_of(client)?;
        if self.node_online(current) {
            return Ok(current);
        }
        let new = (0..self.nodes.len())
            .find(|&i| self.node_online(i))
            .ok_or_else(|| CoreError::DistributorDown("all".to_string()))?;
        self.primary_of.write().insert(client.to_string(), new);
        Ok(new)
    }

    /// Operator-side stripe audit, addressed through node `via` (any
    /// online node may run maintenance, like retrieval in Fig. 2).
    pub fn scrub(&self, via: usize) -> Result<ScrubReport> {
        self.check_up(via)?;
        Ok(self.shared.scrub())
    }

    /// Rebuilds the degraded stripes a fresh scrub finds, through node
    /// `via`.
    pub fn repair(&self, via: usize) -> Result<RepairReport> {
        self.check_up(via)?;
        self.shared.try_repair()
    }

    fn check_up(&self, idx: usize) -> Result<()> {
        if self.node_online(idx) {
            Ok(())
        } else {
            Err(CoreError::DistributorDown(self.nodes[idx].name.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkSizeSchedule, DistributorConfig};
    use fragcloud_sim::{CloudProvider, CostLevel, ProviderProfile};

    fn group(n: usize) -> DistributorGroup {
        let providers: Vec<Arc<CloudProvider>> = (0..6)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect();
        let shared = Arc::new(
            CloudDataDistributor::try_new(
                providers,
                DistributorConfig {
                    chunk_sizes: ChunkSizeSchedule::uniform(32),
                    stripe_width: 3,
                    ..Default::default()
                },
            )
            .expect("valid config"),
        );
        DistributorGroup::try_new(shared, n).expect("non-empty group")
    }

    fn body() -> Vec<u8> {
        (0..200u32).map(|i| (i * 7) as u8).collect()
    }

    #[test]
    fn primary_writes_secondaries_read() {
        let g = group(3);
        g.register_client(0, "Bob").unwrap();
        g.add_password(1, "Bob", "pw", PrivacyLevel::High).unwrap();
        g.put_file(
            0,
            "Bob",
            "pw",
            "f",
            &body(),
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .unwrap();
        // Every node can serve the read.
        for via in 0..3 {
            let r = g.get_file(via, "Bob", "pw", "f").unwrap();
            assert_eq!(r.data, body(), "via={via}");
        }
    }

    #[test]
    fn non_primary_writes_rejected() {
        let g = group(3);
        g.register_client(1, "Bob").unwrap();
        g.add_password(1, "Bob", "pw", PrivacyLevel::High).unwrap();
        let err = g
            .put_file(
                0,
                "Bob",
                "pw",
                "f",
                &body(),
                PrivacyLevel::Low,
                PutOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::NotPrimary { .. }));
        assert_eq!(g.primary_of("Bob").unwrap(), 1);
    }

    #[test]
    fn down_node_rejects_and_failover_promotes() {
        let g = group(3);
        g.register_client(0, "Bob").unwrap();
        g.add_password(0, "Bob", "pw", PrivacyLevel::High).unwrap();
        g.put_file(
            0,
            "Bob",
            "pw",
            "f",
            &body(),
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .unwrap();
        g.set_node_online(0, false);
        assert!(matches!(
            g.get_file(0, "Bob", "pw", "f"),
            Err(CoreError::DistributorDown(_))
        ));
        // Reads still work through a secondary.
        assert!(g.get_file(2, "Bob", "pw", "f").is_ok());
        // Failover promotes node 1, writes resume there.
        let new_primary = g.failover("Bob").unwrap();
        assert_eq!(new_primary, 1);
        g.put_file(
            1,
            "Bob",
            "pw",
            "g",
            &body(),
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn failover_is_noop_when_primary_up() {
        let g = group(2);
        g.register_client(1, "Bob").unwrap();
        assert_eq!(g.failover("Bob").unwrap(), 1);
    }

    #[test]
    fn all_nodes_down_failover_fails() {
        let g = group(2);
        g.register_client(0, "Bob").unwrap();
        g.set_node_online(0, false);
        g.set_node_online(1, false);
        assert!(matches!(
            g.failover("Bob"),
            Err(CoreError::DistributorDown(_))
        ));
    }

    #[test]
    fn group_basics() {
        let g = group(3);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.node_name(0), "distributor-0");
        assert!(matches!(
            g.primary_of("nobody"),
            Err(CoreError::UnknownClient(_))
        ));
    }

    #[test]
    fn try_new_rejects_empty_group() {
        let g = group(1);
        let Err(err) = DistributorGroup::try_new(Arc::clone(&g.shared), 0) else {
            panic!("empty group accepted");
        };
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("at least one node"))
        );
        assert!(DistributorGroup::try_new(Arc::clone(&g.shared), 2).is_ok());
    }

    /// Fig. 2 failover under load: the primary goes down in the middle of
    /// a read sequence; every in-flight read completes through a
    /// secondary, promotion picks the lowest-indexed online node, and the
    /// write path moves with it.
    #[test]
    fn failover_mid_read_sequence_under_load() {
        let g = group(4);
        g.register_client(0, "Bob").unwrap();
        g.add_password(0, "Bob", "pw", PrivacyLevel::High).unwrap();
        let files: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
        for (i, f) in files.iter().enumerate() {
            let mut data = body();
            data.push(i as u8);
            g.put_file(
                0,
                "Bob",
                "pw",
                f,
                &data,
                PrivacyLevel::Low,
                PutOptions::default(),
            )
            .unwrap();
        }

        // Read back through the primary until it dies mid-sequence.
        for f in &files[..4] {
            g.get_file(0, "Bob", "pw", f).unwrap();
        }
        g.set_node_online(0, false);
        for (i, f) in files.iter().enumerate() {
            // The dead primary refuses; any secondary serves the rest of
            // the sequence with intact bytes.
            assert!(matches!(
                g.get_file(0, "Bob", "pw", f),
                Err(CoreError::DistributorDown(_))
            ));
            let via = 1 + (i % 3);
            let r = g.get_file(via, "Bob", "pw", f).unwrap();
            let mut want = body();
            want.push(i as u8);
            assert_eq!(r.data, want, "file {f} via node {via}");
        }

        // Until failover runs, writes are stuck: the mapped primary is
        // node 0, so every secondary rejects the upload.
        for via in 1..4 {
            assert!(matches!(
                g.put_file(
                    via,
                    "Bob",
                    "pw",
                    "h",
                    &body(),
                    PrivacyLevel::Low,
                    PutOptions::default()
                ),
                Err(CoreError::NotPrimary { .. })
            ));
        }
        assert_eq!(g.failover("Bob").unwrap(), 1);

        // Writes resume on the promoted node only.
        g.put_file(
            1,
            "Bob",
            "pw",
            "h",
            &body(),
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .unwrap();
        assert!(matches!(
            g.put_file(
                2,
                "Bob",
                "pw",
                "h2",
                &body(),
                PrivacyLevel::Low,
                PutOptions::default()
            ),
            Err(CoreError::NotPrimary { .. })
        ));

        // The old primary coming back does not reclaim the role: it can
        // serve reads again but its writes are rejected.
        g.set_node_online(0, true);
        assert_eq!(g.get_file(0, "Bob", "pw", "h").unwrap().data, body());
        assert!(matches!(
            g.put_file(
                0,
                "Bob",
                "pw",
                "h3",
                &body(),
                PrivacyLevel::Low,
                PutOptions::default()
            ),
            Err(CoreError::NotPrimary { .. })
        ));
        assert_eq!(g.primary_of("Bob").unwrap(), 1);
    }
}
