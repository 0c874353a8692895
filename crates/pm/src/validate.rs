//! Dynamic validation of the paper's correctness conditions.
//!
//! §3 defines a capsule to have a **write-after-read conflict** "if the
//! first transfer from a block in persistent memory is a read (called an
//! 'exposed' read), and later there is a write to the same block". Avoiding
//! such conflicts (plus well-formedness) makes a capsule idempotent
//! (Theorem 3.1) and, combined with race freedom or the §5 capsule forms,
//! atomically idempotent (Theorem 5.1).
//!
//! [`WarTracker`] checks this property *per capsule run* at word
//! granularity: word-level operations (including CAM) record individual
//! words, and block transfers record every word of the block — so block
//! transfers are checked exactly at the paper's block granularity while
//! word-granularity CAS/CAM operations (which the model explicitly allows
//! "on a single word within a block") are not spuriously flagged against
//! neighbouring words.
//!
//! In `Strict` mode a violation panics with a diagnostic (the test suite's
//! way of proving our capsules satisfy Theorem 3.1's hypothesis); in
//! `Record` mode it increments a counter; in `Off` mode nothing is tracked.

use crate::config::ValidateMode;
use crate::stats::MemStats;
use crate::word::Addr;

/// Slots in a fresh first-access table (a power of two). The table
/// doubles whenever it becomes half full and keeps its size across
/// capsules, so it settles at the largest footprint the processor has run.
const INITIAL_SLOTS: usize = 64;

/// Largest generation number a slot stamp can hold next to its kind bit.
const MAX_GENERATION: u32 = u32::MAX >> 1;

/// Fibonacci-hashing multiplier (2^64 / golden ratio): consecutive words
/// land far apart, so a capsule's contiguous block reads do not cluster.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One slot of the first-access table: a word and a stamp packing the
/// generation that filled the slot (bits 1..) with the access kind (bit 0:
/// set for a first write). A slot stamped with any generation other than
/// the current one is empty.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: Addr,
    stamp: u32,
}

const EMPTY: Slot = Slot { addr: 0, stamp: 0 };

/// Per-capsule write-after-read conflict tracker. Owned by a `ProcCtx`;
/// reset at every capsule (re)start.
///
/// The first access to each word sits in an open-addressing table with
/// linear probing. Every slot carries the generation it was filled in, and
/// [`WarTracker::reset`] only advances the generation, so a capsule
/// boundary costs O(1) however many words the previous capsule touched.
/// Entries are never removed within a generation, which is what lets a
/// lookup stop at the first slot of an older generation.
#[derive(Debug)]
pub struct WarTracker {
    mode: ValidateMode,
    /// Power-of-two table; empty in `Off` mode.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Current generation, in `1..=MAX_GENERATION` (stamp 0 is never
    /// current, so fresh slots start empty).
    generation: u32,
    /// Slots filled in the current generation; kept at most half the
    /// table, so every probe ends at an empty slot.
    live: usize,
    /// Name of the running capsule, for diagnostics.
    capsule_name: String,
}

impl WarTracker {
    /// Creates a tracker with the given mode.
    pub fn new(mode: ValidateMode) -> Self {
        let slots = if mode == ValidateMode::Off {
            Vec::new()
        } else {
            vec![EMPTY; INITIAL_SLOTS]
        };
        WarTracker {
            mode,
            shift: 64 - slots.len().max(1).trailing_zeros(),
            slots,
            generation: 1,
            live: 0,
            capsule_name: String::new(),
        }
    }

    /// The current validation mode.
    pub fn mode(&self) -> ValidateMode {
        self.mode
    }

    /// Clears state at a capsule boundary (or restart — each run is checked
    /// independently, which is sound because a conflict-free run re-executes
    /// identically).
    pub fn reset(&mut self, capsule_name: &str) {
        if self.mode == ValidateMode::Off {
            return;
        }
        self.live = 0;
        if self.generation == MAX_GENERATION {
            // The stamps are about to repeat: empty every slot for real so
            // no entry of an old capsule can come back to life.
            self.slots.fill(EMPTY);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        if self.capsule_name != capsule_name {
            self.capsule_name.clear();
            self.capsule_name.push_str(capsule_name);
        }
    }

    /// Index of `addr`'s slot in the current generation, or of the empty
    /// slot where it would be inserted.
    #[inline]
    fn probe(&self, addr: Addr) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = ((addr as u64).wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let s = self.slots[i];
            if s.stamp >> 1 != self.generation || s.addr == addr {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Fills the empty slot `i` (from [`WarTracker::probe`]) with `addr`'s
    /// first access, doubling the table once it is half full.
    #[inline]
    fn insert(&mut self, i: usize, addr: Addr, first_write: bool) {
        self.slots[i] = Slot {
            addr,
            stamp: self.generation << 1 | first_write as u32,
        };
        self.live += 1;
        if 2 * self.live > self.slots.len() {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for s in old {
            if s.stamp >> 1 == self.generation {
                let i = self.probe(s.addr);
                self.slots[i] = s;
            }
        }
    }

    /// Records a word read.
    #[inline]
    pub fn on_read(&mut self, addr: Addr) {
        if self.mode == ValidateMode::Off {
            return;
        }
        let i = self.probe(addr);
        if self.slots[i].stamp >> 1 != self.generation {
            self.insert(i, addr, false);
        }
    }

    /// Records a word write (stores and CAMs alike). Returns `true` if this
    /// write conflicts with an earlier exposed read in the same capsule.
    #[inline]
    pub fn on_write(&mut self, addr: Addr, stats: &MemStats) -> bool {
        if self.mode == ValidateMode::Off {
            return false;
        }
        let i = self.probe(addr);
        let stamp = self.slots[i].stamp;
        if stamp >> 1 != self.generation {
            self.insert(i, addr, true);
            return false;
        }
        if stamp & 1 == 1 {
            return false;
        }
        self.conflict(addr, stats);
        true
    }

    /// Reports a write to a word whose first access was a read.
    #[cold]
    fn conflict(&self, addr: Addr, stats: &MemStats) {
        match self.mode {
            ValidateMode::Strict => panic!(
                "write-after-read conflict in capsule `{}` at word {}: \
                 the first access to this word was a read, and the capsule \
                 later wrote it — on restart the capsule would observe its \
                 own partial effects (violates Theorem 3.1's hypothesis)",
                self.capsule_name, addr
            ),
            ValidateMode::Record => stats.record_war_conflict(),
            ValidateMode::Off => unreachable!(),
        }
    }

    /// Records a block read: every word of the block becomes exposed unless
    /// already written.
    pub fn on_read_block(&mut self, start: Addr, len: usize) {
        if self.mode == ValidateMode::Off {
            return;
        }
        for a in start..start + len {
            self.on_read(a);
        }
    }

    /// Records a block write; checks each word.
    pub fn on_write_block(&mut self, start: Addr, len: usize, stats: &MemStats) {
        if self.mode == ValidateMode::Off {
            return;
        }
        for a in start..start + len {
            self.on_write(a, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn strict() -> (WarTracker, MemStats) {
        (WarTracker::new(ValidateMode::Strict), MemStats::new(1))
    }

    #[test]
    fn read_then_write_other_word_is_fine() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read(0);
        assert!(!t.on_write(1, &s));
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict")]
    fn read_then_write_same_word_panics_in_strict() {
        let (mut t, s) = strict();
        t.reset("offender");
        t.on_read(5);
        t.on_write(5, &s);
    }

    #[test]
    fn write_then_read_then_write_is_fine() {
        // First access is a write: the capsule owns the word; later reads
        // and writes of it are not exposed.
        let (mut t, s) = strict();
        t.reset("c");
        assert!(!t.on_write(7, &s));
        t.on_read(7);
        assert!(!t.on_write(7, &s));
    }

    #[test]
    fn reset_clears_exposure() {
        let (mut t, s) = strict();
        t.reset("c1");
        t.on_read(3);
        t.reset("c2"); // capsule boundary
        assert!(
            !t.on_write(3, &s),
            "new capsule may write what old one read"
        );
    }

    #[test]
    fn record_mode_counts_instead_of_panicking() {
        let mut t = WarTracker::new(ValidateMode::Record);
        let s = MemStats::new(1);
        t.reset("c");
        t.on_read(0);
        assert!(t.on_write(0, &s));
        assert!(t.on_write(0, &s)); // still conflicting; counted again
        assert_eq!(s.snapshot().war_conflicts, 2);
    }

    #[test]
    fn off_mode_tracks_nothing() {
        let mut t = WarTracker::new(ValidateMode::Off);
        let s = MemStats::new(1);
        t.reset("c");
        t.on_read(0);
        assert!(!t.on_write(0, &s));
        assert_eq!(s.snapshot().war_conflicts, 0);
    }

    #[test]
    fn block_ops_check_block_granularity() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read_block(8, 4); // words 8..12 exposed
        assert!(!t.on_write(12, &s)); // outside the block: fine
    }

    #[test]
    #[should_panic(expected = "write-after-read conflict")]
    fn block_read_then_block_write_overlap_panics() {
        let (mut t, s) = strict();
        t.reset("c");
        t.on_read_block(0, 8);
        t.on_write_block(4, 8, &s); // words 4..8 overlap the exposed read
    }

    /// The tracker's specification: the first access to each word of the
    /// current capsule run, in a `HashMap`.
    #[derive(Default)]
    struct Reference {
        first: HashMap<Addr, bool>,
    }

    impl Reference {
        fn read(&mut self, addr: Addr) {
            self.first.entry(addr).or_insert(false);
        }

        /// Whether the write conflicts (first access was a read).
        fn write(&mut self, addr: Addr) -> bool {
            !*self.first.entry(addr).or_insert(true)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(Addr),
        Write(Addr),
        ReadBlock(Addr, usize),
        WriteBlock(Addr, usize),
        /// A new capsule begins.
        Reset,
        /// The same capsule restarts after a fault.
        Restart,
    }

    /// splitmix64: a fixed, dependency-free stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random operation. Addresses come from a narrow window (so reads
    /// and writes collide and conflict) or, now and then, from a wide one
    /// (so a capsule run spreads over far more words than the table's
    /// initial capacity).
    fn random_op(rng: &mut Rng, wide: bool) -> Op {
        let addr = |rng: &mut Rng| {
            if wide {
                rng.below(1 << 24) as Addr
            } else {
                rng.below(96) as Addr
            }
        };
        match rng.below(100) {
            0..=1 => Op::Reset,
            2 => Op::Restart,
            3..=40 => Op::Read(addr(rng)),
            41..=85 => Op::Write(addr(rng)),
            86..=92 => Op::ReadBlock(addr(rng), 1 + rng.below(8) as usize),
            _ => Op::WriteBlock(addr(rng), 1 + rng.below(8) as usize),
        }
    }

    /// Applies `op` to the tracker and the reference in Record mode and
    /// checks they agree: the same conflict verdicts and counts.
    fn apply_record(
        t: &mut WarTracker,
        r: &mut Reference,
        s: &MemStats,
        op: Op,
        capsule: &mut u64,
    ) {
        let before = s.snapshot().war_conflicts;
        let expected = match op {
            Op::Read(a) => {
                t.on_read(a);
                r.read(a);
                0
            }
            Op::Write(a) => {
                let conflict = r.write(a);
                assert_eq!(t.on_write(a, s), conflict, "{op:?}");
                conflict as u64
            }
            Op::ReadBlock(a, len) => {
                t.on_read_block(a, len);
                (a..a + len).for_each(|w| r.read(w));
                0
            }
            Op::WriteBlock(a, len) => {
                t.on_write_block(a, len, s);
                (a..a + len).filter(|w| r.write(*w)).count() as u64
            }
            Op::Reset | Op::Restart => {
                if let Op::Reset = op {
                    *capsule += 1;
                }
                t.reset(&format!("capsule-{capsule}"));
                r.first.clear();
                0
            }
        };
        assert_eq!(s.snapshot().war_conflicts - before, expected, "{op:?}");
    }

    #[test]
    fn table_matches_a_hashmap_model_in_record_mode() {
        let mut rng = Rng(0x5EED);
        let mut t = WarTracker::new(ValidateMode::Record);
        let s = MemStats::new(1);
        let mut r = Reference::default();
        let mut capsule = 0;
        t.reset("capsule-0");
        let mut largest_run = 0;
        for round in 0..40 {
            // Every fourth round is one long capsule run over wide
            // addresses, growing the table well past its initial size.
            let wide = round % 4 == 3;
            if wide {
                apply_record(&mut t, &mut r, &s, Op::Reset, &mut capsule);
            }
            for _ in 0..if wide { 6_000 } else { 2_000 } {
                let op = random_op(&mut rng, wide);
                if wide && matches!(op, Op::Reset | Op::Restart) {
                    continue;
                }
                apply_record(&mut t, &mut r, &s, op, &mut capsule);
                largest_run = largest_run.max(r.first.len());
            }
        }
        assert!(
            s.snapshot().war_conflicts > 100,
            "the sequence exercises conflicts"
        );
        assert!(
            largest_run > 16 * INITIAL_SLOTS,
            "largest run {largest_run}"
        );
        assert!(t.slots.len() > 16 * INITIAL_SLOTS);
    }

    #[test]
    fn generation_wrap_empties_the_table() {
        let mut rng = Rng(0xAB);
        let mut t = WarTracker::new(ValidateMode::Record);
        let s = MemStats::new(1);
        let mut r = Reference::default();
        let mut capsule = 0;
        t.reset("capsule-0");
        // Exposed reads in an early generation. Nothing below grows the
        // table, so their stale stamps stay in the slots.
        for a in 0..24 {
            apply_record(&mut t, &mut r, &s, Op::Read(a), &mut capsule);
        }
        let early = t.generation;
        // Jump to just before the wrap, as after ~2^31 capsule starts,
        // and run traffic over other words across it.
        t.generation = MAX_GENERATION - 2;
        let mut resets = 0;
        while t.generation != early {
            let op = match random_op(&mut rng, false) {
                Op::Read(a) => Op::Read(1000 + a % 16),
                Op::Write(a) => Op::Write(1000 + a % 16),
                _ => {
                    resets += 1;
                    Op::Reset
                }
            };
            apply_record(&mut t, &mut r, &s, op, &mut capsule);
        }
        assert_eq!(resets, 2 + early as usize, "wrapped to generation 1");
        assert_eq!(t.slots.len(), INITIAL_SLOTS, "no growth rehashed the table");
        // Had the wrap not emptied every slot, the early reads would be
        // current again and these writes would count as conflicts.
        let before = s.snapshot().war_conflicts;
        for a in 0..24 {
            apply_record(&mut t, &mut r, &s, Op::Write(a), &mut capsule);
        }
        assert_eq!(s.snapshot().war_conflicts, before);
    }

    #[test]
    fn strict_mode_panics_exactly_where_the_model_conflicts() {
        let mut rng = Rng(0x57);
        for seq in 0..40 {
            let mut t = WarTracker::new(ValidateMode::Strict);
            let s = MemStats::new(1);
            let mut r = Reference::default();
            let name = format!("seq-{seq}");
            t.reset(&name);
            // Every eighth sequence opens with a long wide run, so the
            // table grows before the conflict is found.
            let wide_ops = if seq % 8 == 7 { 6_000 } else { 0 };
            let mut conflicted = false;
            for k in 0..10_000 {
                let op = random_op(&mut rng, k < wide_ops);
                if k < wide_ops && matches!(op, Op::Reset | Op::Restart) {
                    continue;
                }
                // The model says whether this op conflicts, word by word.
                let conflict = match op {
                    Op::Read(a) => {
                        r.read(a);
                        false
                    }
                    Op::ReadBlock(a, len) => {
                        (a..a + len).for_each(|w| r.read(w));
                        false
                    }
                    Op::Write(a) => r.write(a),
                    Op::WriteBlock(a, len) => (a..a + len).any(|w| r.write(w)),
                    Op::Reset | Op::Restart => {
                        r.first.clear();
                        false
                    }
                };
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    Op::Read(a) => t.on_read(a),
                    Op::ReadBlock(a, len) => t.on_read_block(a, len),
                    Op::Write(a) => assert!(!t.on_write(a, &s)),
                    Op::WriteBlock(a, len) => t.on_write_block(a, len, &s),
                    Op::Reset | Op::Restart => t.reset(&name),
                }));
                match run {
                    Ok(()) => assert!(!conflict, "seq {seq}: {op:?} should have panicked"),
                    Err(e) => {
                        assert!(conflict, "seq {seq}: {op:?} panicked without a conflict");
                        let msg = e.downcast_ref::<String>().expect("formatted panic");
                        assert!(msg.contains("write-after-read conflict"), "{msg}");
                        assert!(msg.contains(&format!("capsule `{name}`")), "{msg}");
                        conflicted = true;
                        break;
                    }
                }
            }
            assert!(conflicted, "seq {seq} never conflicted");
        }
    }
}
