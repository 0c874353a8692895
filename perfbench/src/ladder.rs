//! The layer ladder: the per-operation cost of each layer's public calls,
//! each timed in isolation (word IO on an mmap machine → costed
//! `ProcCtx` access → frame persist → capsule commit → scheduler leaf).
//! The sort workload's op counts times these rungs give the share of its
//! wall time the layers account for; the rest is reported as residual.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ppm::core::{dsl, run_capsule, InstallCtx, Machine, PComp};
use ppm::pm::{write_frame, PmConfig, Region, PAGE_WORDS};
use ppm::sched::{Runtime, RuntimeConfig};

use crate::sort::Rungs;
use crate::{median, op_begin, op_end, Args, Report};

/// Repetitions per rung; each rung reports the median repetition.
const REPS: usize = 9;
/// Operations per repetition of the word-level rungs.
const OPS: usize = 1 << 16;
/// Operations per simulated capsule in the costed-access rungs (the
/// validator and staging buffer reset at each capsule boundary).
const PER_CAPSULE: usize = 256;
/// Pages dirtied per repetition of the dirty-page flush rung.
const PAGES: usize = 256;

/// Leaves of the scheduler rung's trivial parallel loop.
const LEAVES: usize = 4096;

/// Median over [`REPS`] repetitions of `rep()`, which returns
/// `(elapsed ns, operations)`, as ns per operation.
fn rung(mut rep: impl FnMut() -> (f64, f64)) -> f64 {
    let per: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = rep();
            ns / ops
        })
        .collect();
    median(&per)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Measures every rung and reports them; returns the rungs the sort's
/// residual is taken over.
pub fn measure(args: &Args, report: &mut Report) -> Rungs {
    op_begin();
    let path = args.file("ladder.ppm");
    let m = Machine::create_durable(PmConfig::parallel(1, 1 << 22), &path)
        .expect("create the ladder machine file");
    let r: Region = m.alloc_region(OPS + 2 * PAGES * PAGE_WORDS);
    let mem = m.mem().clone();
    let idx = |i: usize| r.at((i * 7919) % OPS);

    let load_ns = rung(|| {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..OPS {
            acc = acc.wrapping_add(mem.load(black_box(idx(i))));
        }
        black_box(acc);
        (ns_since(t), OPS as f64)
    });
    let store_ns = rung(|| {
        let t = Instant::now();
        for i in 0..OPS {
            mem.store(black_box(idx(i)), i as u64);
        }
        (ns_since(t), OPS as f64)
    });
    let cam_ns = rung(|| {
        let t = Instant::now();
        for i in 0..OPS {
            let a = idx(i);
            mem.cam(black_box(a), i as u64, i as u64 + 1);
        }
        (ns_since(t), OPS as f64)
    });

    // Costed access goes through a processor context, in capsule-sized
    // batches: a capsule's validator and staging buffer reset at its
    // boundary. The boundary calls are outside the timed loops.
    let mut ctx = m.ctx(0);
    let mut costed = |f: &mut dyn FnMut(&mut ppm::pm::ProcCtx, usize)| {
        rung(|| {
            let mut ns = 0.0;
            for b in 0..OPS / PER_CAPSULE {
                ctx.begin_capsule("bench/rung");
                let t = Instant::now();
                for j in 0..PER_CAPSULE {
                    f(&mut ctx, b * PER_CAPSULE + j);
                }
                ns += ns_since(t);
                ctx.complete_capsule();
            }
            (ns, OPS as f64)
        })
    };
    let pread_ns = costed(&mut |ctx, i| {
        black_box(ctx.pread(idx(i)).expect("no faults configured"));
    });
    let pwrite_ns = costed(&mut |ctx, i| {
        ctx.pwrite(idx(i), i as u64).expect("no faults configured");
    });
    // Staged frame words plus the boundary flush that charges them.
    let stage_flush_ns_per_word = rung(|| {
        let t = Instant::now();
        for b in 0..OPS / PER_CAPSULE {
            ctx.begin_capsule("bench/rung");
            for j in 0..PER_CAPSULE {
                ctx.stage_write(r.at(b * PER_CAPSULE + j), j as u64);
            }
            ctx.flush_staged().expect("no faults configured");
            ctx.complete_capsule();
        }
        (ns_since(t), OPS as f64)
    });
    // A four-argument frame: the size of a typed span frame.
    let frames_per_capsule = 64;
    let pool_start = ctx.alloc_cursor();
    let frame_write_ns = rung(|| {
        let mut ns = 0.0;
        for _ in 0..OPS / PER_CAPSULE {
            ctx.set_pool_cursor(pool_start);
            ctx.begin_capsule("bench/rung");
            let t = Instant::now();
            for j in 0..frames_per_capsule {
                let args = [j as u64, 1, 2, 3];
                black_box(write_frame(&mut ctx, 0x7000, &args).expect("no faults configured"));
            }
            ns += ns_since(t);
            ctx.flush_staged().expect("no faults configured");
            ctx.complete_capsule();
        }
        (ns, (OPS / PER_CAPSULE * frames_per_capsule) as f64)
    });
    drop(ctx);
    let flush_dirty_ns_per_page = rung(|| {
        for p in 0..PAGES {
            mem.store(r.at(OPS + p * PAGE_WORDS), p as u64 + 1);
        }
        let t = Instant::now();
        let f = m.flush_dirty().expect("flush dirty pages");
        (ns_since(t), f.pages.max(1) as f64)
    });

    // A trivial registered capsule run through the engine: install,
    // body, staged-frame flush, restart-pointer write and commit.
    let mut set = dsl::CapsuleSet::new(&m);
    let nop = set.define("bench/nop", |_: &u64, _k, _ctx| Ok(dsl::Step::End));
    let handle = nop.setup(&m, &0, dsl::K(0));
    let cont = m
        .registry()
        .rehydrate(m.mem(), handle.word())
        .expect("rehydrate the registered capsule");
    let mut ctx = m.ctx(0);
    let mut install = InstallCtx::new(m.proc_meta(0));
    let capsule_ns = rung(|| {
        let n = OPS / 4;
        let t = Instant::now();
        for _ in 0..n {
            black_box(run_capsule(&mut ctx, m.arena(), &mut install, &cont, None, None).is_ok());
        }
        (ns_since(t), n as f64)
    });
    drop(ctx);
    drop(m);
    let _ = std::fs::remove_file(&path);

    let (leaf_ns_p1, ok1) = leaf_ns(1);
    let (leaf_ns_p2, ok2) = leaf_ns(2);
    report.correct &= ok1 && ok2;
    op_end(ok1 && ok2);

    report.put("pm.load_ns", load_ns, "ns");
    report.put("pm.store_ns", store_ns, "ns");
    report.put("pm.cam_ns", cam_ns, "ns");
    report.put("pm.pread_ns", pread_ns, "ns");
    report.put("pm.pwrite_ns", pwrite_ns, "ns");
    report.put("pm.stage_flush_ns_per_word", stage_flush_ns_per_word, "ns");
    report.put("pm.frame_write_ns", frame_write_ns, "ns");
    report.put(
        "pm.flush_dirty_us_per_page",
        flush_dirty_ns_per_page / 1e3,
        "us",
    );
    report.put("core.capsule_ns", capsule_ns, "ns");
    report.put("sched.leaf_ns_p1", leaf_ns_p1, "ns");
    report.put("sched.leaf_ns_p2", leaf_ns_p2, "ns");
    Rungs {
        pread_ns,
        pwrite_ns,
        stage_flush_ns_per_word,
        flush_dirty_us_per_page: flush_dirty_ns_per_page / 1e3,
        capsule_ns,
    }
}

/// Wall time per leaf of a trivial `map_grain` loop (one write per leaf)
/// on a volatile `procs`-processor runtime, and whether every leaf ran.
fn leaf_ns(procs: usize) -> (f64, bool) {
    let mut ok = true;
    let ns = rung(|| {
        let rt = Runtime::volatile(RuntimeConfig::new(PmConfig::parallel(procs, 1 << 21)));
        let out = rt.machine().alloc_region(LEAVES);
        let pcomp: PComp = Arc::new(move |m: &Machine, finale| {
            let mut set = dsl::CapsuleSet::new(m);
            let leaf = set.define("bench/leaf", |st: &dsl::Span<Region>, k, ctx| {
                for i in st.lo..st.hi {
                    ctx.pwrite(st.env.at(i), i as u64 + 1)?;
                }
                Ok(dsl::Step::Jump(k))
            });
            let split = set.map_grain("bench/split", 1, leaf);
            split
                .setup(
                    m,
                    &dsl::Span {
                        env: out,
                        lo: 0,
                        hi: LEAVES,
                    },
                    dsl::K(finale),
                )
                .0
        });
        let t = Instant::now();
        let rep = rt.run_or_recover(&pcomp);
        let ns = ns_since(t);
        ok &= rep.completed()
            && (0..LEAVES).all(|i| rt.machine().mem().load(out.at(i)) == i as u64 + 1);
        (ns, LEAVES as f64)
    });
    (ns, ok)
}
