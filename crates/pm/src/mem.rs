//! The shared persistent memory.
//!
//! A flat array of 64-bit words, grouped into blocks of `B` words. All
//! accesses are sequentially consistent, matching the model's assumption
//! that "all instructions involving the persistent memory are sequentially
//! consistent". The structure itself is *uncosted and fault-free*: cost
//! accounting and fault injection happen in [`crate::ProcCtx`], the only
//! path the runtime uses. Direct access here is for machine setup, test
//! oracles, and result extraction.
//!
//! Where the words physically live is a [`MemBackend`] decision:
//! [`PersistentMemory::new`] keeps the original in-process atomics
//! ([`crate::backend::VolatileBackend`]), while
//! [`PersistentMemory::with_backend`] accepts any backend — notably the
//! file-mapped [`crate::backend::MmapBackend`], whose words survive the
//! death of the process and make [`PersistentMemory::flush`] a real
//! durability boundary.
//!
//! Two conditional-update primitives are provided, mirroring §5:
//!
//! * [`PersistentMemory::cam`] — **compare-and-modify**: a CAS whose result
//!   is *not observable* by the caller (the method returns `()`), which is
//!   the primitive that remains safe under faults.
//! * [`PersistentMemory::cas_unsafe_under_faults`] — a full CAS returning
//!   success. The paper shows this is **not** safe to use in a faulting
//!   capsule (the local result is lost on restart and cannot be
//!   reconstructed); it exists only so the non-fault-tolerant ABP baseline
//!   scheduler can be implemented for comparison.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::backend::{MemBackend, VolatileBackend};
use crate::dirty::{DirtyTracker, PAGE_WORDS};
use crate::word::{Addr, Word};

/// An observer invoked on every *applied* mutation of a watched word:
/// `(addr, previous value, new value)`. Used by experiments (e.g. the
/// Figure 4 entry-state transition matrix) and debugging; it sits outside
/// the model and does not affect cost or semantics.
pub type WriteObserver = Arc<dyn Fn(Addr, Word, Word) + Send + Sync>;

/// What an incremental flush synced: how many dirty pages, in how many
/// contiguous runs, and whether it fell back to a full flush (backend
/// without dirty tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyFlush {
    /// Dirty pages synced (every page, for a full flush).
    pub pages: usize,
    /// Maximal runs of consecutive dirty pages.
    pub runs: usize,
    /// Whether the whole mapping was synced instead of tracked pages.
    pub full: bool,
}

/// The shared persistent memory of one Parallel-PM machine.
pub struct PersistentMemory {
    /// Owner of the storage; `words` borrows from it.
    backend: Box<dyn MemBackend>,
    /// Cached pointer to the backend's word slice, so the per-access hot
    /// path pays no dynamic dispatch. [`MemBackend::words`] guarantees the
    /// slice is stable for the backend's lifetime, and the backend lives
    /// exactly as long as `self`.
    words: *const AtomicU64,
    len: usize,
    block_size: usize,
    observer: RwLock<Option<WriteObserver>>,
    /// Whether `observer` holds an observer, so the store path skips the
    /// lock when none is installed. Written under the observer's write
    /// lock; read with `SeqCst` after each applied mutation, so every
    /// mutation ordered after [`PersistentMemory::set_observer`] returns
    /// is seen.
    observed: AtomicBool,
    /// Page-granular dirty bitmap feeding [`PersistentMemory::flush_dirty`].
    /// Present only when the backend asks for it (durable backends whose
    /// flush cost scales with the synced range); `None` keeps volatile
    /// word traffic free of the extra atomic.
    dirty: Option<DirtyTracker>,
    /// Observability hook: per-run flushed-page counts land here when the
    /// owning machine has wired a registry histogram (see
    /// [`PersistentMemory::set_dirty_histogram`]). Read-locked only on
    /// the flush path, never on word access.
    dirty_hist: RwLock<Option<ppm_obs::Histogram>>,
}

// SAFETY: `words` aliases storage owned by `backend` (kept alive by the
// struct itself), the backend is `Send + Sync`, and all word access goes
// through `&AtomicU64` — so the cached raw pointer adds no thread-safety
// hazard beyond what the backend already guarantees.
unsafe impl Send for PersistentMemory {}
// SAFETY: see the Send justification above.
unsafe impl Sync for PersistentMemory {}

impl std::fmt::Debug for PersistentMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PersistentMemory({} words, B={}, backend={})",
            self.len,
            self.block_size,
            self.backend.kind()
        )
    }
}

impl PersistentMemory {
    /// Allocates `words` zero-initialized in-process words with block size
    /// `block_size` (the [`VolatileBackend`]).
    pub fn new(words: usize, block_size: usize) -> Self {
        Self::with_backend(Box::new(VolatileBackend::new(words)), block_size)
    }

    /// Wraps an arbitrary storage backend.
    pub fn with_backend(backend: Box<dyn MemBackend>, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let slice = backend.words();
        let (words, len) = (slice.as_ptr(), slice.len());
        let dirty = backend
            .wants_dirty_tracking()
            .then(|| DirtyTracker::new(len));
        PersistentMemory {
            backend,
            words,
            len,
            block_size,
            observer: RwLock::new(None),
            observed: AtomicBool::new(false),
            dirty,
            dirty_hist: RwLock::new(None),
        }
    }

    /// Wires the histogram that [`PersistentMemory::flush_dirty`] feeds
    /// with the page length of every synced run (the "dirty-run length"
    /// distribution the checkpoint subsystem sizes itself against).
    pub fn set_dirty_histogram(&self, h: ppm_obs::Histogram) {
        *self.dirty_hist.write() = Some(h);
    }

    /// Records synced-run page lengths into the wired histogram, if any.
    fn observe_dirty_runs(&self, page_lens: impl Iterator<Item = usize>) {
        if let Some(h) = &*self.dirty_hist.read() {
            for len in page_lens {
                h.observe(len as u64);
            }
        }
    }

    #[inline]
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the pointer was taken from the backend's own word slice
        // at construction, is stable (the backend is boxed and never
        // replaced), holds exactly `len` words, and is outlived by the
        // owning backend stored in the same struct.
        unsafe { std::slice::from_raw_parts(self.words, self.len) }
    }

    /// The storage backend.
    pub fn backend(&self) -> &dyn MemBackend {
        &*self.backend
    }

    /// Forces all stored words to stable storage (the backend's durability
    /// boundary — `msync` for file-mapped memory, no-op for volatile).
    /// Also clears the dirty bitmap: a full flush covers every page.
    pub fn flush(&self) -> std::io::Result<()> {
        self.backend.flush()?;
        if let Some(d) = &self.dirty {
            let _ = d.drain();
        }
        Ok(())
    }

    /// Forces only the pages mutated since the last flush to stable
    /// storage, and reports how much work that was. Exact only while the
    /// machine is quiescent (see [`crate::dirty`]); falls back to a full
    /// [`PersistentMemory::flush`] when the backend tracks no dirty
    /// state. On an `msync` error the bitmap is re-marked in full so the
    /// next attempt cannot under-sync.
    pub fn flush_dirty(&self) -> std::io::Result<DirtyFlush> {
        let Some(d) = &self.dirty else {
            let full_pages = self.len.div_ceil(PAGE_WORDS);
            self.flush()?;
            self.observe_dirty_runs(std::iter::once(full_pages));
            return Ok(DirtyFlush {
                pages: full_pages,
                runs: 1,
                full: true,
            });
        };
        let runs = d.drain();
        if let Err(e) = self.backend.flush_dirty(&runs) {
            d.mark_all();
            return Err(e);
        }
        let page_lens = runs.iter().map(|(_, len)| len.div_ceil(PAGE_WORDS));
        self.observe_dirty_runs(page_lens.clone());
        Ok(DirtyFlush {
            pages: page_lens.sum(),
            runs: runs.len(),
            full: false,
        })
    }

    /// The dirty tracker, when the backend maintains one (diagnostics and
    /// tests; flushing goes through [`PersistentMemory::flush_dirty`]).
    pub fn dirty_tracker(&self) -> Option<&DirtyTracker> {
        self.dirty.as_ref()
    }

    #[inline]
    fn mark_dirty(&self, addr: Addr) {
        if let Some(d) = &self.dirty {
            d.mark(addr);
        }
    }

    /// Installs a write observer (see [`WriteObserver`]). Pass `None` to
    /// remove. Observation is best-effort ordering-wise across addresses,
    /// but per-address it sees every applied mutation exactly once with
    /// the true previous value.
    pub fn set_observer(&self, obs: Option<WriteObserver>) {
        let mut slot = self.observer.write();
        self.observed.store(obs.is_some(), Ordering::SeqCst);
        *slot = obs;
    }

    #[inline]
    fn observe(&self, addr: Addr, prev: Word, new: Word) {
        if !self.observed.load(Ordering::SeqCst) {
            return;
        }
        if let Some(obs) = self.observer.read().as_ref() {
            obs(addr, prev, new);
        }
    }

    /// Capacity in words (`M_p`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block size `B` in words.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of whole blocks.
    pub fn blocks(&self) -> usize {
        self.len / self.block_size
    }

    /// Sequentially-consistent load of one word.
    #[inline]
    pub fn load(&self, addr: Addr) -> Word {
        self.words()[addr].load(Ordering::SeqCst)
    }

    /// Sequentially-consistent store of one word.
    #[inline]
    pub fn store(&self, addr: Addr, value: Word) {
        let prev = self.words()[addr].swap(value, Ordering::SeqCst);
        self.mark_dirty(addr);
        self.observe(addr, prev, value);
    }

    /// Compare-and-modify (§5): atomically, if the word at `addr` equals
    /// `old`, replace it with `new`. The swap result is deliberately not
    /// returned — a capsule that faults right after a CAS cannot recover
    /// the local result, so any program logic depending on it would not be
    /// idempotent. Success must instead be observed by *reading the
    /// location in a later capsule* (the test-and-set idiom of §5).
    #[inline]
    pub fn cam(&self, addr: Addr, old: Word, new: Word) {
        if self.words()[addr]
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.mark_dirty(addr);
            self.observe(addr, old, new);
        }
    }

    /// Full compare-and-swap returning whether the swap happened.
    ///
    /// **Not safe under faults** (see §5 of the paper and the module docs);
    /// used only by the ABP baseline, which assumes a fault-free machine.
    #[inline]
    pub fn cas_unsafe_under_faults(&self, addr: Addr, old: Word, new: Word) -> bool {
        let ok = self.words()[addr]
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if ok {
            self.mark_dirty(addr);
            self.observe(addr, old, new);
        }
        ok
    }

    /// Atomic fetch-add, used by test oracles and setup code only (the
    /// model's instruction set has no fetch-add; runtime code never calls
    /// this).
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: Word) -> Word {
        self.mark_dirty(addr);
        self.words()[addr].fetch_add(delta, Ordering::SeqCst)
    }

    /// Copies the block containing no part of cost accounting: reads
    /// `dst.len()` words starting at `addr` (setup/oracle use).
    pub fn read_range(&self, addr: Addr, dst: &mut [Word]) {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self.load(addr + i);
        }
    }

    /// Writes `src` into consecutive words starting at `addr` (setup/oracle
    /// use; uncosted).
    pub fn write_range(&self, addr: Addr, src: &[Word]) {
        for (i, s) in src.iter().enumerate() {
            self.store(addr + i, *s);
        }
    }

    /// Extracts `len` words starting at `addr` into a `Vec` (oracle use).
    pub fn to_vec(&self, addr: Addr, len: usize) -> Vec<Word> {
        let mut v = vec![0; len];
        self.read_range(addr, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memory_is_zero_initialized() {
        let m = PersistentMemory::new(64, 8);
        assert_eq!(m.len(), 64);
        assert_eq!(m.blocks(), 8);
        for a in 0..64 {
            assert_eq!(m.load(a), 0);
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let m = PersistentMemory::new(16, 4);
        m.store(3, 0xDEAD_BEEF);
        assert_eq!(m.load(3), 0xDEAD_BEEF);
        assert_eq!(m.load(2), 0);
    }

    #[test]
    fn cam_swaps_only_on_match() {
        let m = PersistentMemory::new(4, 1);
        m.store(0, 10);
        m.cam(0, 10, 20); // matches
        assert_eq!(m.load(0), 20);
        m.cam(0, 10, 30); // stale expectation: no effect
        assert_eq!(m.load(0), 20);
    }

    #[test]
    fn cam_is_idempotent_when_non_reverting() {
        // Re-running a CAM capsule: the second identical CAM fails silently,
        // leaving memory as if it ran once (Theorem 5.2's mechanism).
        let m = PersistentMemory::new(1, 1);
        m.store(0, 0);
        m.cam(0, 0, 7);
        m.cam(0, 0, 7); // restart replays the same CAM
        assert_eq!(m.load(0), 7);
    }

    #[test]
    fn cas_reports_success_and_failure() {
        let m = PersistentMemory::new(1, 1);
        assert!(m.cas_unsafe_under_faults(0, 0, 5));
        assert!(!m.cas_unsafe_under_faults(0, 0, 6));
        assert_eq!(m.load(0), 5);
    }

    #[test]
    fn ranges_round_trip() {
        let m = PersistentMemory::new(32, 8);
        m.write_range(8, &[1, 2, 3, 4]);
        assert_eq!(m.to_vec(8, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.to_vec(12, 2), vec![0, 0]);
    }

    #[test]
    fn concurrent_cams_from_unset_have_exactly_one_winner() {
        // The test-and-set idiom of §5: N threads CAM the same location
        // from UNSET (0) to their id; exactly one must win.
        let m = Arc::new(PersistentMemory::new(1, 1));
        let threads = 8;
        let mut handles = Vec::new();
        for t in 1..=threads {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                m.cam(0, 0, t as Word);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let winner = m.load(0);
        assert!((1..=threads as Word).contains(&winner));
    }

    #[test]
    fn observer_sees_applied_mutations_with_previous_values() {
        use parking_lot::Mutex;
        let m = PersistentMemory::new(4, 1);
        let log: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        m.set_observer(Some(Arc::new(move |a, p, n| log2.lock().push((a, p, n)))));
        m.store(0, 5);
        m.cam(0, 5, 6); // applies
        m.cam(0, 5, 7); // does not apply: unobserved
        assert!(m.cas_unsafe_under_faults(1, 0, 9));
        assert_eq!(
            *log.lock(),
            vec![(0, 0, 5), (0, 5, 6), (1, 0, 9)],
            "only applied mutations observed, with true previous values"
        );
        m.set_observer(None);
        m.store(2, 1);
        assert_eq!(log.lock().len(), 3);
    }

    #[test]
    fn observer_installed_mid_run_sees_every_later_mutation() {
        use parking_lot::Mutex;
        let m = PersistentMemory::new(4, 1);
        m.store(0, 1);
        m.store(1, 2);
        m.cam(0, 1, 3);
        let log: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        m.set_observer(Some(Arc::new(move |a, p, n| log2.lock().push((a, p, n)))));
        m.store(0, 4);
        m.cam(1, 2, 5);
        m.write_range(2, &[6, 7]);
        assert!(m.cas_unsafe_under_faults(3, 7, 8));
        assert_eq!(
            *log.lock(),
            vec![(0, 3, 4), (1, 2, 5), (2, 0, 6), (3, 0, 7), (3, 7, 8)],
            "the true previous values, including those stored unobserved"
        );
        m.set_observer(None);
        m.store(0, 9);
        m.cam(1, 5, 10);
        assert_eq!(log.lock().len(), 5, "nothing observed after removal");
    }

    /// A volatile backend that opts into dirty tracking, for exercising
    /// the marking paths without a file.
    #[derive(Debug)]
    struct TrackingBackend(crate::backend::VolatileBackend);

    impl crate::backend::MemBackend for TrackingBackend {
        fn words(&self) -> &[AtomicU64] {
            self.0.words()
        }
        fn wants_dirty_tracking(&self) -> bool {
            true
        }
        fn kind(&self) -> &'static str {
            "tracking-test"
        }
    }

    fn tracked(words: usize) -> PersistentMemory {
        PersistentMemory::with_backend(
            Box::new(TrackingBackend(crate::backend::VolatileBackend::new(words))),
            8,
        )
    }

    #[test]
    fn mutations_mark_their_pages_dirty() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(4 * PAGE_WORDS);
        let t = m.dirty_tracker().expect("tracking backend has a tracker");
        assert_eq!(t.dirty_pages(), 0);
        m.store(3, 1); // page 0
        m.cam(PAGE_WORDS + 1, 0, 5); // page 1: applies
        m.cam(PAGE_WORDS + 1, 0, 6); // does not apply: no mark
        m.fetch_add(3 * PAGE_WORDS, 1); // page 3
        assert!(m.cas_unsafe_under_faults(PAGE_WORDS + 2, 0, 9));
        assert_eq!(t.dirty_pages(), 3);
        let flush = m.flush_dirty().unwrap();
        assert_eq!(
            (flush.pages, flush.runs),
            (3, 2),
            "dirty pages 0, 1 and 3 form two runs; the clean page 2 is not counted"
        );
        assert!(!flush.full);
        // Nothing stored since: the next incremental flush is free.
        assert_eq!(m.flush_dirty().unwrap().pages, 0);
    }

    #[test]
    fn write_range_spanning_pages_marks_both() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(2 * PAGE_WORDS);
        m.write_range(PAGE_WORDS - 1, &[1, 2]);
        assert_eq!(m.dirty_tracker().unwrap().dirty_pages(), 2);
    }

    #[test]
    fn scattered_dirty_pages_flush_incrementally() {
        use crate::dirty::PAGE_WORDS;
        // Many isolated runs are still one incremental flush, counting
        // only the dirty pages.
        let m = tracked(400 * PAGE_WORDS);
        for r in 0..10 {
            m.store(r * 40 * PAGE_WORDS, 1);
        }
        let flush = m.flush_dirty().unwrap();
        assert_eq!((flush.pages, flush.runs, flush.full), (10, 10, false));
        assert_eq!(m.dirty_tracker().unwrap().dirty_pages(), 0);
    }

    #[test]
    fn a_drained_page_stored_again_is_marked_again() {
        use crate::dirty::PAGE_WORDS;
        let m = tracked(4 * PAGE_WORDS);
        let t = m.dirty_tracker().unwrap();
        m.store(PAGE_WORDS + 3, 1);
        m.store(PAGE_WORDS + 4, 2); // bit already set: no second mark
        assert_eq!(m.flush_dirty().unwrap().pages, 1);
        assert!(!t.is_dirty(PAGE_WORDS));
        m.store(PAGE_WORDS + 3, 3);
        assert!(t.is_dirty(PAGE_WORDS), "the drained page is dirty again");
        m.cam(PAGE_WORDS + 3, 3, 4);
        assert_eq!(m.flush_dirty().unwrap().pages, 1);
        m.cam(2 * PAGE_WORDS, 0, 5);
        assert_eq!(t.dirty_pages(), 1);
    }

    #[test]
    fn full_flush_clears_the_dirty_bitmap() {
        let m = tracked(1024);
        m.store(0, 1);
        m.flush().unwrap();
        assert_eq!(m.flush_dirty().unwrap().pages, 0);
    }

    #[test]
    fn untracked_backends_fall_back_to_full_flush() {
        let m = PersistentMemory::new(1024, 8);
        assert!(m.dirty_tracker().is_none());
        m.store(0, 1);
        let flush = m.flush_dirty().unwrap();
        assert!(flush.full);
        assert_eq!(flush.pages, 2, "1024 words = 2 pages, all covered");
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let m = Arc::new(PersistentMemory::new(1, 1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.fetch_add(0, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.load(0), 4000);
    }
}
