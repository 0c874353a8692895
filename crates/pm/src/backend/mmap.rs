//! The durable backend: the word array mapped onto a file.
//!
//! A durable machine file is one [`Superblock`] page followed by the word
//! array, mapped `MAP_SHARED` with `PROT_READ|PROT_WRITE`. Because the
//! mapping is shared, every atomic store lands in the kernel page cache
//! the instant it retires — killing the writing process (the `kill -9`
//! hard-fault scenario) loses nothing that was already stored. The
//! explicit [`MemBackend::flush`] boundary (`msync(MS_SYNC)`) extends the
//! guarantee to machine/power failure.
//!
//! The environment vendors no FFI crates, so the three syscall wrappers
//! this module needs (`mmap`, `munmap`, `msync`) are declared directly
//! against the C library every Rust binary on unix already links.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

use parking_lot::Mutex;

use super::superblock::{
    CheckpointRecord, Superblock, CKPT_SLOT_BYTES, CKPT_SLOT_OFFSETS, STATE_CLEAN, STATE_IN_RUN,
    SUPERBLOCK_BYTES,
};
use super::MemBackend;
use crate::dirty::PageRun;
use crate::lease::{lease_slot_offset, ClusterHeader, Lease, CLUSTER_HEADER_OFFSET};
use crate::service::ServiceHeader;

mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
        pub fn msync(addr: *mut c_void, length: usize, flags: i32) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MS_SYNC: i32 = 0x4;
}

/// File-backed word storage with crash persistence.
pub struct MmapBackend {
    /// Base of the shared mapping (superblock page included).
    base: *mut u8,
    /// Total mapping length in bytes.
    map_len: usize,
    /// Number of words after the superblock.
    len_words: usize,
    /// Kept open for `msync`-independent metadata syncs and so the file
    /// cannot disappear under the mapping.
    _file: File,
    path: PathBuf,
    /// Serializes superblock rewrites (open-time epoch bumps and
    /// `mark_clean`; word traffic never takes this lock).
    sb_lock: Mutex<()>,
}

// SAFETY: the raw pointer is a shared file mapping that lives until Drop:
// word access goes through `&[AtomicU64]`, cross-process slots go through
// `sb_word` atomics, and superblock rewrites are serialized by `sb_lock`,
// so moving or sharing the handle across threads cannot introduce a data
// race that the mapping's own protocol does not already govern.
unsafe impl Send for MmapBackend {}
// SAFETY: see the Send justification above — all interior access paths
// are atomic or lock-serialized.
unsafe impl Sync for MmapBackend {}

impl std::fmt::Debug for MmapBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MmapBackend({} words on {})",
            self.len_words,
            self.path.display()
        )
    }
}

fn file_bytes(words: usize) -> u64 {
    (SUPERBLOCK_BYTES + words * 8) as u64
}

impl MmapBackend {
    /// Creates (or truncates) a durable file holding `superblock` and a
    /// zeroed word array of `superblock.persistent_words` words, and maps
    /// it. The superblock is written and synced before this returns.
    pub fn create(path: impl AsRef<Path>, superblock: Superblock) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let words = superblock.persistent_words as usize;
        file.set_len(file_bytes(words))?;
        let backend = Self::map(file, path, words)?;
        backend.write_superblock(&superblock)?;
        Ok(backend)
    }

    /// Opens an existing durable file, validates its superblock against
    /// the file's actual size, records a new run attaching to it (epoch
    /// increment, state ← in-run), and maps its words. Returns the
    /// superblock *as found* — `epoch` is the pre-increment value and
    /// `state` tells whether the previous run detached cleanly.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, Superblock)> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < SUPERBLOCK_BYTES as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too short for a superblock",
            ));
        }
        let mut page = vec![0u8; SUPERBLOCK_BYTES];
        read_exact_at(&file, &mut page, 0)?;
        let found = Superblock::decode(&page)?;
        let words = found.persistent_words as usize;
        if actual_len != file_bytes(words) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "file is {actual_len} bytes but the superblock describes {} (truncated?)",
                    file_bytes(words)
                ),
            ));
        }
        let backend = Self::map(file, path, words)?;
        let mut attached = found;
        attached.epoch += 1;
        attached.state = STATE_IN_RUN;
        backend.write_superblock(&attached)?;
        Ok((backend, found))
    }

    /// Opens an existing durable file as a **secondary attacher**: the
    /// superblock is validated and returned exactly as found, but — unlike
    /// [`MmapBackend::open`] — neither the run epoch nor the state word is
    /// touched. A sharded runtime's worker processes attach this way: the
    /// coordinator's `create` established the run epoch, and every worker
    /// shares it, so recovery semantics ("did the previous *run* crash?")
    /// stay a property of the run, not of how many processes served it.
    pub fn attach(path: impl AsRef<Path>) -> io::Result<(Self, Superblock)> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let actual_len = file.metadata()?.len();
        if actual_len < SUPERBLOCK_BYTES as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too short for a superblock",
            ));
        }
        let mut page = vec![0u8; SUPERBLOCK_BYTES];
        read_exact_at(&file, &mut page, 0)?;
        let found = Superblock::decode(&page)?;
        let words = found.persistent_words as usize;
        if actual_len != file_bytes(words) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "file is {actual_len} bytes but the superblock describes {} (truncated?)",
                    file_bytes(words)
                ),
            ));
        }
        let backend = Self::map(file, path, words)?;
        Ok((backend, found))
    }

    fn map(file: File, path: PathBuf, words: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        let map_len = SUPERBLOCK_BYTES + words * 8;
        // SAFETY: plain FFI mmap of `map_len` bytes of an open fd we own;
        // a MAP_FAILED return is checked immediately below, and the fd is
        // kept alive in `_file` for the lifetime of the mapping.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapBackend {
            base: base as *mut u8,
            map_len,
            len_words: words,
            _file: file,
            path,
            sb_lock: Mutex::new(()),
        })
    }

    /// Rewrites the superblock page and syncs it to the file.
    fn write_superblock(&self, sb: &Superblock) -> io::Result<()> {
        let _guard = self.sb_lock.lock();
        // SAFETY: the mapping is at least SUPERBLOCK_BYTES long for the
        // lifetime of `self`, and `sb_lock` (held above) serializes every
        // mutable view of the superblock page within this process.
        let page = unsafe { std::slice::from_raw_parts_mut(self.base, SUPERBLOCK_BYTES) };
        sb.encode_into(page);
        self.msync_range(0, SUPERBLOCK_BYTES)
    }

    fn read_superblock(&self) -> Superblock {
        let _guard = self.sb_lock.lock();
        // SAFETY: in-bounds shared view of the superblock page; `sb_lock`
        // excludes in-process writers while this borrow is live.
        let page = unsafe { std::slice::from_raw_parts(self.base, SUPERBLOCK_BYTES) };
        Superblock::decode(page).expect("mapped superblock was validated at open/create")
    }

    /// Reads one checkpoint slot from the mapped superblock page.
    fn read_ckpt_slot(&self, slot: usize) -> io::Result<Option<CheckpointRecord>> {
        let _guard = self.sb_lock.lock();
        // SAFETY: every checkpoint slot lies inside the superblock page
        // (asserted by the CKPT_SLOT_OFFSETS layout constants), and
        // `sb_lock` excludes in-process writers while this borrow is live.
        let bytes = unsafe {
            std::slice::from_raw_parts(self.base.add(CKPT_SLOT_OFFSETS[slot]), CKPT_SLOT_BYTES)
        };
        CheckpointRecord::decode(bytes)
    }

    /// Word `i` (by byte offset) of the mapped superblock page as an
    /// atomic. Cross-process lease traffic must go through atomics: the
    /// `sb_lock` only serializes writers *within* one process, while
    /// lease slots are written by their owning worker and read by every
    /// sibling concurrently. Offsets are 8-aligned by construction
    /// (`mmap` returns page-aligned memory).
    fn sb_word(&self, byte_off: usize) -> &AtomicU64 {
        debug_assert!(byte_off.is_multiple_of(8) && byte_off + 8 <= SUPERBLOCK_BYTES);
        // SAFETY: `base` is page-aligned (mmap) and `byte_off` is 8-aligned
        // and in-bounds (asserted above), so the cast produces a valid,
        // live AtomicU64 reference; atomics make the cross-process sharing
        // sound by construction.
        unsafe { &*(self.base.add(byte_off) as *const AtomicU64) }
    }

    fn write_sb_words(&self, byte_off: usize, words: &[u64]) {
        use std::sync::atomic::Ordering;
        // Checksum word last: a racing reader either sees the previous
        // record's checksum (stale but valid view) or a mismatch (torn
        // view, which it discards) — never a half-new record accepted.
        for (i, w) in words.iter().enumerate() {
            self.sb_word(byte_off + i * 8).store(*w, Ordering::SeqCst);
        }
    }

    fn read_sb_words<const N: usize>(&self, byte_off: usize) -> [u64; N] {
        use std::sync::atomic::Ordering;
        let mut out = [0u64; N];
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.sb_word(byte_off + i * 8).load(Ordering::SeqCst);
        }
        out
    }

    fn msync_range(&self, offset: usize, len: usize) -> io::Result<()> {
        debug_assert_eq!(offset % SUPERBLOCK_BYTES, 0, "msync needs page alignment");
        // SAFETY: plain FFI msync over a sub-range of our own live mapping;
        // page alignment is asserted above and the return code is checked.
        let rc = unsafe {
            sys::msync(
                self.base.add(offset) as *mut std::ffi::c_void,
                len,
                sys::MS_SYNC,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

impl MemBackend for MmapBackend {
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the region after the superblock page is 8-byte aligned
        // (page alignment of `base` plus the 4096-byte offset), holds
        // exactly `len_words` words, and lives for `self` — the mapping is
        // only torn down in Drop. AtomicU64 access makes the MAP_SHARED
        // cross-process aliasing sound.
        unsafe {
            std::slice::from_raw_parts(
                self.base.add(SUPERBLOCK_BYTES) as *const AtomicU64,
                self.len_words,
            )
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.msync_range(0, self.map_len)
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.path)
    }

    fn superblock(&self) -> Option<Superblock> {
        Some(self.read_superblock())
    }

    fn mark_clean(&self) -> io::Result<()> {
        self.flush()?;
        let mut sb = self.read_superblock();
        sb.state = STATE_CLEAN;
        self.write_superblock(&sb)
    }

    fn wants_dirty_tracking(&self) -> bool {
        true
    }

    /// Syncs the hull of the runs — first dirty page to last — in one
    /// `msync`. On Linux each `msync(MS_SYNC)` of a shared file mapping
    /// ends in an fsync of the file (on ext4, a journal commit), a fixed
    /// cost that outweighs skipping the clean pages between runs; the
    /// kernel writes back only the dirty ones.
    fn flush_dirty(&self, runs: &[PageRun]) -> io::Result<()> {
        let (Some((first, _)), Some((last, last_len))) = (runs.first(), runs.last()) else {
            return Ok(());
        };
        // Word range → byte range past the superblock page. Runs are
        // page-aligned by construction (DirtyTracker::drain), so the
        // msync alignment requirement holds.
        self.msync_range(SUPERBLOCK_BYTES + first * 8, (last + last_len - first) * 8)
    }

    fn write_checkpoint(&self, record: &CheckpointRecord) -> io::Result<bool> {
        if !record.fits() {
            return Ok(false);
        }
        let off = CKPT_SLOT_OFFSETS[record.slot()];
        {
            let _guard = self.sb_lock.lock();
            // SAFETY: the slot lies inside the superblock page and
            // `sb_lock` (held above) excludes every other in-process view
            // of that page while this mutable borrow is live.
            let bytes =
                unsafe { std::slice::from_raw_parts_mut(self.base.add(off), CKPT_SLOT_BYTES) };
            bytes.fill(0);
            record.encode_into(bytes);
        }
        // The slots live inside the (one-page) superblock page.
        self.msync_range(0, SUPERBLOCK_BYTES)?;
        Ok(true)
    }

    fn latest_checkpoint(&self) -> Option<CheckpointRecord> {
        let mut best: Option<CheckpointRecord> = None;
        for slot in 0..CKPT_SLOT_OFFSETS.len() {
            // A torn slot is skipped, not fatal: the other slot holds the
            // previous epoch's record.
            if let Ok(Some(rec)) = self.read_ckpt_slot(slot) {
                if best.as_ref().map(|b| rec.seq > b.seq).unwrap_or(true) {
                    best = Some(rec);
                }
            }
        }
        best
    }

    fn clear_checkpoints(&self) -> io::Result<()> {
        {
            let _guard = self.sb_lock.lock();
            for off in CKPT_SLOT_OFFSETS {
                // SAFETY: same argument as `write_checkpoint` — in-page
                // slot, `sb_lock` held by the enclosing block.
                let bytes =
                    unsafe { std::slice::from_raw_parts_mut(self.base.add(off), CKPT_SLOT_BYTES) };
                bytes.fill(0);
            }
        }
        self.msync_range(0, SUPERBLOCK_BYTES)
    }

    fn write_cluster_header(&self, header: &ClusterHeader) -> io::Result<bool> {
        self.write_sb_words(CLUSTER_HEADER_OFFSET, &header.encode());
        // The header is written once, by the coordinator, before workers
        // spawn — sync it so a machine failure cannot orphan a sharded
        // file without its geometry.
        self.msync_range(0, SUPERBLOCK_BYTES)?;
        Ok(true)
    }

    fn read_cluster_header(&self) -> Option<ClusterHeader> {
        let words: [u64; 6] = self.read_sb_words(CLUSTER_HEADER_OFFSET);
        ClusterHeader::decode(&words)
    }

    fn write_lease(&self, shard: usize, lease: &Lease) -> io::Result<()> {
        self.write_sb_words(lease_slot_offset(shard), &lease.encode());
        // Deliberately no msync: heartbeats only need page-cache
        // visibility across the sharing processes, and syncing every few
        // hundred milliseconds would tax the durability path for nothing.
        Ok(())
    }

    fn read_lease(&self, shard: usize) -> Option<Lease> {
        let words: [u64; 4] = self.read_sb_words(lease_slot_offset(shard));
        Lease::decode(&words)
    }

    fn write_service_header(&self, header: &ServiceHeader) -> io::Result<bool> {
        self.write_sb_words(crate::service::SERVICE_HEADER_OFFSET, &header.encode());
        // Written by the coordinator/service handle only (single writer);
        // synced like the cluster header so a machine failure cannot
        // orphan a service file without its ring geometry.
        self.msync_range(0, SUPERBLOCK_BYTES)?;
        Ok(true)
    }

    fn read_service_header(&self) -> Option<ServiceHeader> {
        let words: [u64; 8] = self.read_sb_words(crate::service::SERVICE_HEADER_OFFSET);
        ServiceHeader::decode(&words)
    }

    fn write_quiesce_word(&self, byte_off: usize, val: u64) {
        use std::sync::atomic::Ordering;
        // Coordination traffic like leases: no msync.
        self.sb_word(byte_off).store(val, Ordering::SeqCst);
    }

    fn read_quiesce_word(&self, byte_off: usize) -> u64 {
        use std::sync::atomic::Ordering;
        self.sb_word(byte_off).load(Ordering::SeqCst)
    }

    fn kind(&self) -> &'static str {
        "mmap"
    }
}

impl Drop for MmapBackend {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `map` established; `&mut self`
        // guarantees no outstanding borrows of the mapping remain.
        unsafe {
            sys::munmap(self.base as *mut std::ffi::c_void, self.map_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmConfig;
    use std::sync::atomic::Ordering;

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppm-mmap-test-{}-{tag}.ppm", std::process::id()));
        p
    }

    fn sb(words: usize) -> Superblock {
        Superblock::describe(&PmConfig::parallel(2, words), 64)
    }

    #[test]
    fn create_store_reopen_round_trips() {
        let path = tmp_path("roundtrip");
        {
            let b = MmapBackend::create(&path, sb(1024)).unwrap();
            b.words()[17].store(0xDEAD_BEEF, Ordering::SeqCst);
            b.words()[1023].store(42, Ordering::SeqCst);
            b.flush().unwrap();
        }
        {
            let (b, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 1);
            assert!(!found.clean(), "crashy drop leaves in-run state");
            assert_eq!(b.words()[17].load(Ordering::SeqCst), 0xDEAD_BEEF);
            assert_eq!(b.words()[1023].load(Ordering::SeqCst), 42);
            assert_eq!(b.words()[0].load(Ordering::SeqCst), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unflushed_stores_survive_backend_drop() {
        // MAP_SHARED: stores live in the page cache even without msync.
        let path = tmp_path("unflushed");
        {
            let b = MmapBackend::create(&path, sb(64)).unwrap();
            b.words()[5].store(99, Ordering::SeqCst);
            // no flush — simulates sudden process death
        }
        let (b, _) = MmapBackend::open(&path).unwrap();
        assert_eq!(b.words()[5].load(Ordering::SeqCst), 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn epoch_increments_per_attach_and_clean_is_recorded() {
        let path = tmp_path("epoch");
        {
            let b = MmapBackend::create(&path, sb(64)).unwrap();
            assert_eq!(b.superblock().unwrap().epoch, 1);
            b.mark_clean().unwrap();
        }
        {
            let (b, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 1);
            assert!(found.clean());
            assert_eq!(b.superblock().unwrap().epoch, 2);
            assert!(!b.superblock().unwrap().clean());
        }
        {
            let (_, found) = MmapBackend::open(&path).unwrap();
            assert_eq!(found.epoch, 2);
            assert!(!found.clean(), "second run never marked clean");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp_path("truncated");
        {
            let _ = MmapBackend::create(&path, sb(1024)).unwrap();
        }
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(file_bytes(1024) - 512).unwrap();
        drop(f);
        let err = MmapBackend::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_dirty_syncs_runs_and_checkpoints_round_trip() {
        let path = tmp_path("ckpt");
        let rec = |seq: u64| CheckpointRecord {
            seq,
            epoch: 1,
            capsules: 40 * seq,
            watermarks: vec![64 * seq],
            frontier: vec![0x100 + seq],
        };
        {
            let b = MmapBackend::create(&path, sb(4096)).unwrap();
            b.words()[100].store(7, Ordering::SeqCst);
            b.flush_dirty(&[(0, 512), (3584, 512)]).unwrap();
            assert!(b.latest_checkpoint().is_none());
            assert!(b.write_checkpoint(&rec(1)).unwrap());
            assert!(b.write_checkpoint(&rec(2)).unwrap());
            assert_eq!(b.latest_checkpoint().unwrap().seq, 2);
        }
        {
            // Both records survive reopen; the newest wins.
            let (b, _) = MmapBackend::open(&path).unwrap();
            let latest = b.latest_checkpoint().unwrap();
            assert_eq!(latest, rec(2));
            // Tear the newest slot on disk: reopen must fall back to the
            // previous record, not error out.
            let off = CKPT_SLOT_OFFSETS[rec(2).slot()];
            {
                let guard = b.sb_lock.lock();
                // SAFETY: in-page checkpoint slot, sb_lock held — same
                // argument as the non-test write_checkpoint path.
                let bytes =
                    unsafe { std::slice::from_raw_parts_mut(b.base.add(off), CKPT_SLOT_BYTES) };
                bytes[16] ^= 0xFF;
                drop(guard);
            }
            assert_eq!(b.latest_checkpoint().unwrap(), rec(1));
            b.clear_checkpoints().unwrap();
            assert!(b.latest_checkpoint().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attach_shares_words_without_bumping_the_epoch() {
        use crate::lease::{LeaseState, ShardMap};
        let path = tmp_path("attach");
        let creator = MmapBackend::create(&path, sb(1024)).unwrap();
        assert_eq!(creator.superblock().unwrap().epoch, 1);

        // A secondary attacher maps the same words, sees the same epoch,
        // and leaves the superblock untouched.
        let (worker, found) = MmapBackend::attach(&path).unwrap();
        assert_eq!(found.epoch, 1);
        assert_eq!(worker.superblock().unwrap().epoch, 1);
        creator.words()[9].store(1234, Ordering::SeqCst);
        assert_eq!(worker.words()[9].load(Ordering::SeqCst), 1234);
        worker.words()[10].store(4321, Ordering::SeqCst);
        assert_eq!(creator.words()[10].load(Ordering::SeqCst), 4321);

        // Cluster header and leases are visible across mappings (this is
        // the cross-process liveness oracle's transport).
        let header = ClusterHeader {
            shards: 2,
            lease_ms: 700,
            deque_slots: 4096,
            seed: 0xC0FFEE,
        };
        assert!(creator.write_cluster_header(&header).unwrap());
        assert_eq!(worker.read_cluster_header(), Some(header));
        let map = ShardMap::new(2, 2);
        assert_eq!(map.procs_per_shard, 1);
        let lease = Lease::alive(7, 10_000);
        worker.write_lease(1, &lease).unwrap();
        assert_eq!(creator.read_lease(1), Some(lease));
        assert!(creator.read_lease(0).is_none(), "blank slot stays blank");
        let tomb = Lease {
            state: LeaseState::Dead,
            seq: 8,
            deadline_ms: u64::MAX,
        };
        creator.write_lease(1, &tomb).unwrap();
        assert!(worker
            .read_lease(1)
            .unwrap()
            .is_dead(crate::lease::now_ms()));

        // A real `open` after both detach still bumps the epoch once.
        drop(worker);
        drop(creator);
        let (reopened, found) = MmapBackend::open(&path).unwrap();
        assert_eq!(found.epoch, 1, "attachers never advanced the epoch");
        assert_eq!(reopened.superblock().unwrap().epoch, 2);
        assert_eq!(
            reopened.read_cluster_header(),
            Some(header),
            "cluster header survives reopen"
        );
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ppm_file_rejected() {
        let path = tmp_path("garbage");
        std::fs::write(&path, vec![0xAB; SUPERBLOCK_BYTES + 64]).unwrap();
        assert!(MmapBackend::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
