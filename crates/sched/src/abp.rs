//! The Arora–Blumofe–Plaxton baseline scheduler.
//!
//! The scheduler our fault-tolerant one is built from (ABP01): a classic
//! CAS-based work-stealing deque with a tagged `age` word (top pointer +
//! ABA tag) and an untagged `bot`. It observes CAS results directly, so —
//! as §5 of the paper proves — it is **not safe under faults**: a fault
//! between the CAS and acting on its result loses the answer. It exists as
//! the comparison point for the scheduler benchmarks (same cost accounting,
//! same fork-join computations, `f = 0` enforced).
//!
//! ABP01: Arora, Blumofe, Plaxton, "Thread scheduling for multiprogrammed
//! multiprocessors", Theory of Computing Systems 34(2).

use std::sync::Arc;

use ppm_core::{
    capsule_unchecked, run_capsule, Cont, DoneFlag, InstallCtx, Machine, Next, PComp, Step,
    CORE_ID_FINALE,
};
use ppm_pm::{Addr, PmResult, ProcCtx, Region, StatsSnapshot, Word};

/// One processor's ABP deque: an array of continuation handles plus the
/// packed `age` (top:32 | tag:32) and `bot` words.
#[derive(Debug, Clone, Copy)]
pub struct AbpDeque {
    stack: Region,
    age: Addr,
    bot: Addr,
    slots: usize,
}

fn age_pack(top: u32, tag: u32) -> Word {
    ((top as u64) << 32) | tag as u64
}

fn age_unpack(w: Word) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

impl AbpDeque {
    fn entry(&self, i: usize) -> Addr {
        assert!(
            i < self.slots,
            "ABP deque overflow (slot {i} of {})",
            self.slots
        );
        self.stack.at(i)
    }

    /// `pushBottom(h)` — owner only.
    fn push_bottom(&self, ctx: &mut ProcCtx, h: Word) -> PmResult<()> {
        let b = ctx.pread(self.bot)? as usize;
        ctx.pwrite(self.entry(b), h)?;
        ctx.pwrite(self.bot, (b + 1) as Word)?;
        Ok(())
    }

    /// `popBottom()` — owner only.
    fn pop_bottom(&self, ctx: &mut ProcCtx) -> PmResult<Option<Word>> {
        let b = ctx.pread(self.bot)? as usize;
        if b == 0 {
            return Ok(None);
        }
        let b = b - 1;
        ctx.pwrite(self.bot, b as Word)?;
        let h = ctx.pread(self.entry(b))?;
        let old_age = ctx.pread(self.age)?;
        let (top, tag) = age_unpack(old_age);
        if b > top as usize {
            return Ok(Some(h));
        }
        ctx.pwrite(self.bot, 0)?;
        let new_age = age_pack(0, tag.wrapping_add(1));
        if b == top as usize && ctx.pcas_baseline(self.age, old_age, new_age)? {
            return Ok(Some(h));
        }
        ctx.pwrite(self.age, new_age)?;
        Ok(None)
    }

    /// `popTop()` — any processor.
    fn pop_top(&self, ctx: &mut ProcCtx) -> PmResult<Option<Word>> {
        let old_age = ctx.pread(self.age)?;
        let b = ctx.pread(self.bot)? as usize;
        let (top, tag) = age_unpack(old_age);
        if b <= top as usize {
            return Ok(None);
        }
        let h = ctx.pread(self.entry(top as usize))?;
        let new_age = age_pack(top + 1, tag);
        if ctx.pcas_baseline(self.age, old_age, new_age)? {
            return Ok(Some(h));
        }
        Ok(None)
    }
}

/// The ABP scheduler instance.
pub struct AbpScheduler {
    deques: Vec<AbpDeque>,
    done: DoneFlag,
    seed: u64,
}

impl AbpScheduler {
    /// Carves per-processor deques with `slots` entries each.
    pub fn new(machine: &Machine, done: DoneFlag, slots: usize, seed: u64) -> Arc<Self> {
        assert_eq!(
            machine.cfg().fault.fault_prob,
            0.0,
            "the ABP baseline is not fault-tolerant; run it with FaultConfig::none()"
        );
        assert!(
            machine.cfg().fault.scheduled_hard_faults.is_empty(),
            "the ABP baseline cannot survive hard faults"
        );
        let deques = (0..machine.procs())
            .map(|_| AbpDeque {
                stack: machine.alloc_region(slots),
                age: machine.alloc_region(1).start,
                bot: machine.alloc_region(1).start,
                slots,
            })
            .collect();
        Arc::new(AbpScheduler { deques, done, seed })
    }

    /// The scheduler capsule: find work (own deque, then random steals)
    /// or halt when done. Runs as one unchecked capsule — legitimate only
    /// because the machine is fault-free.
    fn find_work(self: &Arc<Self>, machine: &Machine) -> Cont {
        let s = self.clone();
        let arena = machine.arena().clone();
        let p = s.deques.len();
        capsule_unchecked("abp/findWork", move |ctx| {
            let me = ctx.proc();
            if let Some(h) = s.deques[me].pop_bottom(ctx)? {
                return Ok(Next::Jump(arena.resolve(h).expect("dangling ABP handle")));
            }
            let mut n = 0u64;
            loop {
                if s.done.read(ctx)? {
                    return Ok(Next::Halt);
                }
                if p > 1 {
                    let r = (s.seed ^ ((me as u64) << 32) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let v = (r >> 33) as usize % (p - 1);
                    let victim = if v >= me { v + 1 } else { v };
                    if let Some(h) = s.deques[victim].pop_top(ctx)? {
                        return Ok(Next::Jump(arena.resolve(h).expect("dangling ABP handle")));
                    }
                }
                n += 1;
            }
        })
    }

    /// The fork wrapper: push the child, continue the thread.
    fn push_wrap(self: &Arc<Self>, handle: Word, cont: Cont) -> Cont {
        let s = self.clone();
        capsule_unchecked("abp/push", move |ctx| {
            let me = ctx.proc();
            s.deques[me].push_bottom(ctx, handle)?;
            Ok(Next::Jump(cont.clone()))
        })
    }
}

/// Result of an ABP run.
#[derive(Debug, Clone)]
pub struct AbpReport {
    /// Whether the completion flag was set (always, absent deadlock).
    pub completed: bool,
    /// Machine statistics.
    pub stats: StatsSnapshot,
    /// Wall-clock duration of the parallel section.
    pub elapsed: std::time::Duration,
}

/// Runs a registered fork-join computation under the ABP baseline
/// (fault-free). The root frame rehydrates through the machine's arena,
/// as on the fault-tolerant scheduler.
pub fn run_computation_abp(machine: &Machine, pcomp: &PComp, slots: usize, seed: u64) -> AbpReport {
    let done = DoneFlag::new(machine);
    let finale = machine.setup_frame(CORE_ID_FINALE, &[done.addr() as Word]);
    let root_handle = pcomp(machine, finale);
    let root = machine
        .arena()
        .resolve(root_handle)
        .expect("root frame handle must rehydrate through the registry");
    let sched = AbpScheduler::new(machine, done, slots, seed);

    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for p in 0..machine.procs() {
            let sched = sched.clone();
            let root = root.clone();
            s.spawn(move || {
                let mut ctx = machine.ctx(p);
                let mut install = InstallCtx::new(machine.proc_meta(p));
                let on_end = sched.find_work(machine);
                let sched_for_fork = sched.clone();
                let fork_wrap = move |handle: Word, cont: Cont, _cont_handle: Option<Word>| {
                    sched_for_fork.push_wrap(handle, cont)
                };
                let mut cur: Cont = if p == 0 { root } else { on_end.clone() };
                loop {
                    match run_capsule(
                        &mut ctx,
                        machine.arena(),
                        &mut install,
                        &cur,
                        Some(&fork_wrap),
                        Some(&on_end),
                    ) {
                        Ok(Step::Next(c)) => cur = c,
                        Ok(Step::Done) => return,
                        Err(f) => unreachable!("fault {f} on the fault-free ABP baseline"),
                    }
                }
            });
        }
    });
    AbpReport {
        completed: done.is_set(machine.mem()),
        stats: machine.stats().snapshot(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::par_for;
    use ppm_pm::{PmConfig, Region};

    fn markers(r: Region, n: usize) -> PComp {
        par_for("mark", r, n, |r: &Region, i, ctx| {
            ctx.pwrite(r.at(i), i as u64 + 1)
        })
    }

    #[test]
    fn abp_runs_fanout_on_four_procs() {
        let m = Machine::new(PmConfig::parallel(4, 1 << 21));
        let n = 64;
        let r = m.alloc_region(n);
        let comp = markers(r, n);
        let rep = run_computation_abp(&m, &comp, 1024, 7);
        assert!(rep.completed);
        for i in 0..n {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1, "task {i}");
        }
    }

    #[test]
    fn abp_single_proc() {
        let m = Machine::new(PmConfig::parallel(1, 1 << 20));
        let r = m.alloc_region(16);
        let comp = markers(r, 8);
        let rep = run_computation_abp(&m, &comp, 256, 7);
        assert!(rep.completed);
        for i in 0..8 {
            assert_eq!(m.mem().load(r.at(i)), i as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "not fault-tolerant")]
    fn abp_rejects_faulty_machines() {
        let m = Machine::new(
            PmConfig::parallel(1, 1 << 18).with_fault(ppm_pm::FaultConfig::soft(0.1, 0)),
        );
        let done = DoneFlag::new(&m);
        let _ = AbpScheduler::new(&m, done, 64, 0);
    }

    #[test]
    fn age_packing_round_trips() {
        for (top, tag) in [(0u32, 0u32), (1, 2), (u32::MAX, u32::MAX), (7, 0)] {
            assert_eq!(age_unpack(age_pack(top, tag)), (top, tag));
        }
    }
}
