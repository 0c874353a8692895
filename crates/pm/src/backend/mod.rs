//! Storage backends for the persistent word array.
//!
//! The Parallel-PM model's "persistent" memory must survive processor
//! faults. For the *simulated* faults of the original reproduction an
//! in-process array of atomics suffices ([`VolatileBackend`]), but the
//! model's recovery story is only demonstrable against real process
//! crashes if the words live somewhere a `kill -9` cannot reach. The
//! [`MemBackend`] trait abstracts that choice behind
//! [`crate::mem::PersistentMemory`]:
//!
//! * [`VolatileBackend`] — heap-allocated atomics; exactly the original
//!   behavior. "Persistence" spans simulated faults within one process.
//! * [`MmapBackend`] (unix) — the word array is a `MAP_SHARED` mapping of
//!   a file, preceded by a versioned [`Superblock`] recording the machine
//!   shape ([`crate::PmConfig`] dimensions, pool sizing) and a run epoch.
//!   Word stores reach the kernel page cache immediately — they survive
//!   the death of the writing process — and [`MemBackend::flush`]
//!   (`msync(MS_SYNC)`) is the explicit boundary at which they are also
//!   durable against machine/power failure.
//!
//! The backend is deliberately *below* the model: cost accounting, fault
//! injection and validation all happen in [`crate::ProcCtx`] regardless of
//! where the words live.

use std::fmt::Debug;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;

use crate::dirty::PageRun;
use crate::lease::{ClusterHeader, Lease};
use crate::service::ServiceHeader;

pub mod superblock;
pub mod volatile;

#[cfg(unix)]
pub mod mmap;

pub use superblock::{CheckpointRecord, Superblock, SUPERBLOCK_BYTES};
pub use volatile::VolatileBackend;

#[cfg(unix)]
pub use mmap::MmapBackend;

/// Storage for a machine's persistent word array.
///
/// Implementations hand out the backing words as a stable slice of
/// sequentially-consistent atomics: the slice address must not change for
/// the lifetime of the backend (heap allocations and memory mappings both
/// satisfy this), which lets [`crate::mem::PersistentMemory`] cache the
/// pointer and keep word access free of dynamic dispatch.
pub trait MemBackend: Send + Sync + Debug {
    /// The backing word array. Must return the same slice (same address,
    /// same length) on every call.
    fn words(&self) -> &[AtomicU64];

    /// Forces previously-stored words to stable storage. The durability
    /// boundary of the backend: after `flush` returns, everything stored
    /// before the call survives even a machine failure. No-op for
    /// volatile backends.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    /// The backing file, if any.
    fn path(&self) -> Option<&Path> {
        None
    }

    /// The superblock describing the stored machine, if this backend is
    /// durable.
    fn superblock(&self) -> Option<Superblock> {
        None
    }

    /// Records a clean shutdown in the superblock (durable backends) and
    /// flushes. A subsequent reopen can distinguish a completed run from
    /// a crashed one.
    fn mark_clean(&self) -> io::Result<()> {
        self.flush()
    }

    /// Whether [`crate::mem::PersistentMemory`] should maintain a dirty
    /// bitmap for this backend. `true` for backends whose
    /// [`MemBackend::flush_dirty`] beats a full [`MemBackend::flush`]
    /// (file-mapped storage); `false` keeps volatile word traffic free of
    /// the tracking atomics.
    fn wants_dirty_tracking(&self) -> bool {
        false
    }

    /// Forces at least the given word runs (page-aligned, sorted and
    /// disjoint, from [`crate::DirtyTracker::drain`]) to stable storage —
    /// the incremental twin of [`MemBackend::flush`]. The default falls
    /// back to a full flush, which is always correct.
    fn flush_dirty(&self, _runs: &[PageRun]) -> io::Result<()> {
        self.flush()
    }

    /// Durably writes a checkpoint record (durable backends; no-op
    /// otherwise, returning `false`). Records alternate between two
    /// superblock-page slots so a torn write can never destroy the
    /// previous checkpoint.
    fn write_checkpoint(&self, _record: &CheckpointRecord) -> io::Result<bool> {
        Ok(false)
    }

    /// The newest valid checkpoint record on stable storage, if any.
    fn latest_checkpoint(&self) -> Option<CheckpointRecord> {
        None
    }

    /// Invalidates every stored checkpoint record (called when a recovery
    /// replays from the root: pool cursors reset, so old checkpoint
    /// frontiers no longer denote live frames).
    fn clear_checkpoints(&self) -> io::Result<()> {
        Ok(())
    }

    /// Writes the cluster header describing a sharded run (see
    /// [`crate::lease`]). Returns `false` when the backend cannot carry
    /// cluster state (no superblock page and no in-memory table).
    fn write_cluster_header(&self, _header: &ClusterHeader) -> io::Result<bool> {
        Ok(false)
    }

    /// The cluster header, if one was written and is not torn.
    fn read_cluster_header(&self) -> Option<ClusterHeader> {
        None
    }

    /// Writes shard `shard`'s lease slot. Lease writes are heartbeat
    /// traffic: they go to the shared page (visible to every attached
    /// process immediately) but are *not* synced — liveness signals do
    /// not need to survive machine failure.
    fn write_lease(&self, _shard: usize, _lease: &Lease) -> io::Result<()> {
        Ok(())
    }

    /// Reads shard `shard`'s lease slot. `None` for a blank slot or a
    /// torn (mid-rewrite) read — callers keep their previous view.
    fn read_lease(&self, _shard: usize) -> Option<Lease> {
        None
    }

    /// Durably writes the service header describing a job-service run
    /// (see [`crate::service`]). Returns `false` when the backend cannot
    /// carry service state.
    fn write_service_header(&self, _header: &ServiceHeader) -> io::Result<bool> {
        Ok(false)
    }

    /// The service header, if one was written and is not torn.
    fn read_service_header(&self) -> Option<ServiceHeader> {
        None
    }

    /// Writes one raw checkpoint-quiesce word (see
    /// [`crate::service::QUIESCE_REQ_OFFSET`] and friends). Quiesce
    /// words are coordination traffic like leases: shared-page visible
    /// immediately, never synced. No-op for backends without a
    /// superblock page.
    fn write_quiesce_word(&self, _byte_off: usize, _val: u64) {}

    /// Reads one raw checkpoint-quiesce word (0 for backends without a
    /// superblock page — quiesce never triggers there).
    fn read_quiesce_word(&self, _byte_off: usize) -> u64 {
        0
    }

    /// Short human-readable backend name for diagnostics.
    fn kind(&self) -> &'static str;
}
