//! Typed client API: [`Credentials`] plus a [`Session`] handle.
//!
//! The original surface took ⟨client, password⟩ as loose string pairs on
//! every call, which made it easy to swap arguments or re-authenticate on
//! each operation. A [`Session`] is opened once through
//! [`CloudDataDistributor::session`] — validating the client and password
//! up front — and then exposes the per-file operations without repeating
//! the credentials:
//!
//! ```
//! use fragcloud_core::{CloudDataDistributor, DistributorConfig, PutOptions};
//! use fragcloud_sim::{CloudProvider, CostLevel, PrivacyLevel, ProviderProfile};
//! use std::sync::Arc;
//!
//! let fleet: Vec<_> = (0..6)
//!     .map(|i| {
//!         Arc::new(CloudProvider::new(ProviderProfile::new(
//!             format!("cp{i}"),
//!             PrivacyLevel::High,
//!             CostLevel::new(i % 4),
//!         )))
//!     })
//!     .collect();
//! let d = CloudDataDistributor::try_new(fleet, DistributorConfig::default()).unwrap();
//! d.register_client("Bob").unwrap();
//! d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
//!
//! let session = d.session("Bob", "Ty7e").unwrap();
//! session
//!     .put_file("a.txt", b"hello", PrivacyLevel::High, PutOptions::new())
//!     .unwrap();
//! assert_eq!(session.get_file("a.txt").unwrap().data, b"hello");
//! ```
//!
//! Access control is unchanged: the password's privacy level is still
//! checked against each chunk's level *per operation* (§V), so a `Public`
//! session can open fine and still be denied on `High` data.

use crate::distributor::{CloudDataDistributor, GetReceipt, PutOptions, PutReceipt};
use crate::{CoreError, Result};
use fragcloud_sim::PrivacyLevel;
use std::fmt;

/// A validated ⟨client, password⟩ pair.
///
/// The password is deliberately not readable outside this crate, and the
/// `Debug` form redacts it so credentials cannot leak through logs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Credentials {
    client: String,
    password: String,
}

impl Credentials {
    /// Bundles a client name and one of its passwords.
    pub fn new(client: impl Into<String>, password: impl Into<String>) -> Self {
        Credentials {
            client: client.into(),
            password: password.into(),
        }
    }

    /// The client name.
    pub fn client(&self) -> &str {
        &self.client
    }

    pub(crate) fn password(&self) -> &str {
        &self.password
    }
}

impl fmt::Debug for Credentials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Credentials")
            .field("client", &self.client)
            .field("password", &"<redacted>")
            .finish()
    }
}

/// A client's authenticated handle onto a distributor.
///
/// Created by [`CloudDataDistributor::session`]; borrows the distributor,
/// so it cannot outlive it.
#[derive(Debug)]
pub struct Session<'d> {
    distributor: &'d CloudDataDistributor,
    credentials: Credentials,
    privilege: PrivacyLevel,
}

impl CloudDataDistributor {
    /// Opens a typed session for `client`, failing fast with
    /// [`CoreError::AccessDenied`] when the
    /// password is not one of the client's registered pairs (§V).
    pub fn session(&self, client: &str, password: &str) -> Result<Session<'_>> {
        self.session_with(Credentials::new(client, password))
    }

    /// [`session`](Self::session) with pre-built [`Credentials`].
    pub fn session_with(&self, credentials: Credentials) -> Result<Session<'_>> {
        let privilege = self
            .password_level(credentials.client(), credentials.password())?
            .ok_or(CoreError::AccessDenied)?;
        Ok(Session {
            distributor: self,
            credentials,
            privilege,
        })
    }
}

impl fmt::Debug for CloudDataDistributor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CloudDataDistributor")
            .finish_non_exhaustive()
    }
}

impl<'d> Session<'d> {
    /// The credentials this session was opened with (password redacted in
    /// `Debug`).
    pub fn credentials(&self) -> &Credentials {
        &self.credentials
    }

    /// The client name.
    pub fn client(&self) -> &str {
        self.credentials.client()
    }

    /// Highest privacy level this session's password may touch (§V) —
    /// resolved once at session open.
    pub fn privilege(&self) -> PrivacyLevel {
        self.privilege
    }

    /// The distributor this session is bound to.
    pub fn distributor(&self) -> &'d CloudDataDistributor {
        self.distributor
    }

    /// The distributor's runtime-telemetry handle (disabled unless
    /// [`CloudDataDistributor::enable_telemetry`] or
    /// [`CloudDataDistributor::set_telemetry`] was called). Every op issued
    /// through this session is recorded against it.
    pub fn telemetry(&self) -> fragcloud_telemetry::TelemetryHandle {
        self.distributor.telemetry()
    }

    /// Exports every span this session's distributor retained as Chrome
    /// `trace_event` JSON — loadable in Perfetto / `chrome://tracing` —
    /// or `None` when telemetry is disabled. Spans from *all* sessions
    /// bound to the same distributor share the registry, so the trace
    /// shows the whole process's put/get/scrub/repair timeline.
    pub fn export_trace(&self) -> Option<String> {
        self.telemetry().registry().map(|r| r.export_trace())
    }

    /// Uploads a file at the given privacy level; see
    /// [`PutOptions`] for per-upload knobs.
    pub fn put_file(
        &self,
        filename: &str,
        data: &[u8],
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        self.distributor.put_file_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            data,
            pl,
            opts,
        )
    }

    /// Uploads a file from a [`Read`](std::io::Read) source of declared
    /// length without ever buffering it whole: peak memory is bounded by
    /// the pipeline window, and the resulting provider state is
    /// byte-identical to [`put_file`](Self::put_file) with the same bytes.
    /// A source that yields more or fewer bytes than `len` fails the put
    /// with [`crate::CoreError::StreamLengthMismatch`].
    pub fn put_stream(
        &self,
        filename: &str,
        reader: &mut dyn std::io::Read,
        len: usize,
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        self.distributor.put_stream_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            reader,
            len,
            pl,
            opts,
        )
    }

    /// Fetches and reassembles a whole file (§VI `get file`) through the
    /// degraded-mode read path.
    pub fn get_file(&self, filename: &str) -> Result<GetReceipt> {
        self.distributor.get_file_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
        )
    }

    /// Alias of [`get_file`](Self::get_file), kept for callers of the
    /// removed per-provider fan-out path (which was slower than the one
    /// get on in-memory providers and bypassed retry and breaker
    /// accounting). Real fan-out, when a provider that costs wall time
    /// exists, lands inside `get_file`.
    pub fn get_file_parallel(&self, filename: &str) -> Result<GetReceipt> {
        self.get_file(filename)
    }

    /// Fetches one chunk by serial number (§VI `get chunk`).
    pub fn get_chunk(&self, filename: &str, serial: u32) -> Result<Vec<u8>> {
        self.distributor.get_chunk_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            serial,
        )
    }

    /// Replaces one chunk's contents, keeping its pre-state as the
    /// chunk's snapshot (§IV-A). Write-once: the new bytes, each replica,
    /// the snapshot and the stripe's re-planned parity are stored under
    /// fresh vids, each on its predecessor's provider, and the objects they
    /// supersede — the old data and replicas, the old parity, an earlier
    /// snapshot — are deleted once the update is committed. An update
    /// that fails, or a process that dies before the commit, leaves the
    /// chunk's pre-update objects in place and its fresh ones collected.
    pub fn update_chunk(&self, filename: &str, serial: u32, new_data: &[u8]) -> Result<()> {
        self.distributor.update_chunk_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            serial,
            new_data,
        )
    }

    /// Restores a chunk from its snapshot (undo the last update): the
    /// snapshot's bytes are stored again under fresh vids, with the
    /// stripe's re-planned parity, and the superseded objects — the
    /// snapshot included — are deleted once the restore is committed.
    /// Fails with [`CoreError::UnknownChunk`]
    /// when the chunk has no snapshot.
    pub fn restore_snapshot(&self, filename: &str, serial: u32) -> Result<()> {
        self.distributor.restore_snapshot_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            serial,
        )
    }

    /// Removes one chunk (§VI `remove chunk`): its row becomes a
    /// tombstone whose stripe slot counts as zeros, the stripe's parity is
    /// re-planned and stored under fresh vids, and the chunk's objects —
    /// data, replicas, snapshot — and the old parity are deleted once the
    /// removal is committed.
    pub fn remove_chunk(&self, filename: &str, serial: u32) -> Result<()> {
        self.distributor.remove_chunk_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
            serial,
        )
    }

    /// Removes a whole file (§VI `remove file`): data chunks, parity
    /// chunks, snapshots and all table entries. The involved providers are
    /// availability-checked before any mutation, so an outage yields a
    /// clean error with the file untouched.
    pub fn remove_file(&self, filename: &str) -> Result<()> {
        self.distributor.remove_file_impl(
            self.credentials.client(),
            self.credentials.password(),
            filename,
        )
    }

    /// Chunk count notified for a file (valid serials `0..n`).
    pub fn file_chunk_count(&self, filename: &str) -> Result<usize> {
        self.distributor
            .file_chunk_count(self.credentials.client(), filename)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorConfig;
    use crate::CoreError;
    use fragcloud_sim::{CloudProvider, CostLevel, ProviderProfile};
    use std::sync::Arc;

    fn distributor() -> CloudDataDistributor {
        let fleet: Vec<_> = (0..6)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new((i % 4) as u8),
                )))
            })
            .collect();
        let d = CloudDataDistributor::new(fleet, DistributorConfig::default());
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d.add_password("Bob", "aB1c", PrivacyLevel::Public).unwrap();
        d
    }

    #[test]
    fn session_validates_up_front() {
        let d = distributor();
        assert!(d.session("Bob", "Ty7e").is_ok());
        assert_eq!(
            d.session("Bob", "wrong").unwrap_err(),
            CoreError::AccessDenied
        );
        assert!(matches!(
            d.session("Eve", "Ty7e").unwrap_err(),
            CoreError::UnknownClient(_)
        ));
    }

    #[test]
    fn session_round_trip_and_privilege() {
        let d = distributor();
        let s = d.session("Bob", "Ty7e").unwrap();
        assert_eq!(s.client(), "Bob");
        assert_eq!(s.privilege(), PrivacyLevel::High);
        s.put_file("f", b"abc", PrivacyLevel::High, PutOptions::new())
            .unwrap();
        assert_eq!(s.get_file("f").unwrap().data, b"abc");
        assert_eq!(s.file_chunk_count("f").unwrap(), 1);
        s.remove_file("f").unwrap();
        assert!(s.get_file("f").is_err());
    }

    #[test]
    fn low_privilege_session_opens_but_is_denied_per_op() {
        let d = distributor();
        let high = d.session("Bob", "Ty7e").unwrap();
        high.put_file("secret", b"xyz", PrivacyLevel::High, PutOptions::new())
            .unwrap();
        // A Public session opens fine (valid pair) but §V denies the read.
        let public = d.session("Bob", "aB1c").unwrap();
        assert_eq!(public.privilege(), PrivacyLevel::Public);
        assert_eq!(
            public.get_file("secret").unwrap_err(),
            CoreError::AccessDenied
        );
    }

    #[test]
    fn credentials_debug_redacts_password() {
        let c = Credentials::new("Bob", "Ty7e");
        let dbg = format!("{c:?}");
        assert!(dbg.contains("Bob"));
        assert!(!dbg.contains("Ty7e"));
        assert!(dbg.contains("<redacted>"));
    }
}
