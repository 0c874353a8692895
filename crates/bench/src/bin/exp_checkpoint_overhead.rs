//! Checkpoint overhead: what does an epoch persist boundary cost?
//!
//! Two measurements on a durable (file-mapped) machine:
//!
//! 1. **Flush microbenchmark** — after dirtying a fixed number of pages,
//!    the time of a whole-mapping `flush()` (`msync` over the file)
//!    versus the dirty-tracked `flush_dirty()` (one msync over the hull
//!    of the touched pages). This is the per-boundary saving that makes
//!    frequent checkpoints affordable.
//! 2. **End-to-end epoch sweep** — the same checkpointed prefix-sum run
//!    at several `every_capsules` intervals (plus checkpointing
//!    disabled), reporting wall-clock, checkpoints taken, pages synced
//!    and pool words reclaimed. Expectation: overhead shrinks as the
//!    interval grows, and even short epochs sync a small fraction of the
//!    file's pages.
//!
//! `cargo run --release -p ppm-bench --bin exp_checkpoint_overhead`

use std::time::{Duration, Instant};

use ppm_algs::PrefixSum;
use ppm_bench::{banner, f2, header, row, s, BenchReport};
use ppm_core::Machine;
use ppm_pm::{PmConfig, Word, PAGE_WORDS};
use ppm_sched::{CheckpointPolicy, Runtime, RuntimeConfig};

const WORDS: usize = 1 << 21; // 16 MiB file for the end-to-end sweep
const MICRO_WORDS: usize = 1 << 24; // 128 MiB mapping for the flush micro
const N: usize = 4096;
const TRIALS: usize = 5;
const DIRTY_PAGES: usize = 32;

fn tmp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ppm-exp-ckpt-{}-{tag}.ppm", std::process::id()));
    p
}

fn input(n: usize) -> Vec<Word> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(37) % 100_003)
        .collect()
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one flush flavor over `trials` rounds of dirtying
/// [`DIRTY_PAGES`] contiguous pages first — the shape of a real epoch's
/// write footprint (pool churn, deque words and output live in localized
/// regions).
fn flush_micro(machine: &Machine, trials: usize, full: bool) -> f64 {
    let mem = machine.mem();
    let total_pages = MICRO_WORDS / PAGE_WORDS;
    let mut total = Duration::ZERO;
    for t in 0..trials {
        let base = (t * DIRTY_PAGES) % (total_pages - DIRTY_PAGES);
        for i in 0..DIRTY_PAGES {
            mem.store((base + i) * PAGE_WORDS + 11, (t * 1000 + i) as Word);
        }
        let start = Instant::now();
        if full {
            mem.flush().expect("msync");
        } else {
            let flush = mem.flush_dirty().expect("msync");
            assert!(!flush.full, "durable backend must track dirty pages");
        }
        total += start.elapsed();
    }
    micros(total / trials as u32)
}

struct EpochRun {
    elapsed: Duration,
    checkpoints: u64,
    pages_flushed: u64,
    words_reclaimed: u64,
    records: u64,
    scrape: String,
}

fn epoch_run(procs: usize, policy: CheckpointPolicy, tag: &str) -> EpochRun {
    let path = tmp(tag);
    let _ = std::fs::remove_file(&path);
    let rt = Runtime::create(
        &path,
        RuntimeConfig::new(PmConfig::parallel(procs, WORDS))
            .with_slots(1 << 13)
            .with_checkpoint(policy),
    )
    .expect("create durable session");
    let ps = PrefixSum::new(rt.machine(), N);
    ps.load_input(rt.machine(), &input(N));
    let start = Instant::now();
    let rep = rt.run_or_recover(&ps.pcomp());
    let elapsed = start.elapsed();
    assert!(rep.completed());
    let run = rep.run.expect("fresh run report");
    let scrape = rt.machine().obs().registry().render();
    let _ = std::fs::remove_file(&path);
    EpochRun {
        elapsed,
        checkpoints: run.checkpoints.completed,
        pages_flushed: run.checkpoints.pages_flushed,
        words_reclaimed: run.checkpoints.words_reclaimed,
        records: run.checkpoints.records_written,
        scrape,
    }
}

fn main() {
    let cli = ppm_bench::cli::Cli::from_env();
    let procs = cli.procs(2);
    let trials = cli.trials(TRIALS);
    banner(
        "exp_checkpoint_overhead",
        "Dirty-block incremental flush vs whole-mapping msync",
        "checkpoint cost is proportional to the epoch's write footprint, not the file size",
    );

    // --- 1. flush microbenchmark -----------------------------------
    let path = tmp("micro");
    let _ = std::fs::remove_file(&path);
    let machine = Machine::create_durable(PmConfig::parallel(1, MICRO_WORDS), &path)
        .expect("create durable machine");
    let full_us = flush_micro(&machine, trials, true);
    let dirty_us = flush_micro(&machine, trials, false);
    let mut report = BenchReport::new("exp_checkpoint_overhead");
    report
        .note("procs", procs)
        .note("dirty_pages", DIRTY_PAGES)
        .metric("flush_full_us", full_us)
        .metric("flush_dirty_us", dirty_us)
        .metric("dirty_over_full_x", dirty_us / full_us.max(0.01));
    drop(machine);
    let _ = std::fs::remove_file(&path);
    let total_pages = MICRO_WORDS / PAGE_WORDS;
    println!(
        "flush of a {} MiB mapping with {DIRTY_PAGES}/{total_pages} pages dirty:",
        (MICRO_WORDS * 8) >> 20
    );
    let widths = [26, 14, 12];
    header(&["flavor", "mean µs", "speedup"], &widths);
    row(
        &[s("flush (whole mapping)"), f2(full_us), s("1.00x")],
        &widths,
    );
    row(
        &[
            s("flush_dirty (tracked)"),
            f2(dirty_us),
            format!("{}x", f2(full_us / dirty_us.max(0.01))),
        ],
        &widths,
    );

    // --- 2. end-to-end epoch sweep ---------------------------------
    println!("\ncheckpointed prefix sum (n = {N}, P = {procs}), epoch sweep:");
    let widths = [16, 12, 12, 14, 16, 10];
    header(
        &[
            "policy",
            "wall ms",
            "ckpts",
            "pages synced",
            "words reclaimed",
            "records",
        ],
        &widths,
    );
    let base = epoch_run(procs, CheckpointPolicy::disabled(), "off");
    report.metric_ms("run_disabled_ms", base.elapsed);
    row(
        &[
            s("disabled"),
            f2(base.elapsed.as_secs_f64() * 1e3),
            s(0),
            s(0),
            s(0),
            s(0),
        ],
        &widths,
    );
    let mut last_scrape = base.scrape.clone();
    for k in [256u64, 1024, 4096] {
        let r = epoch_run(procs, CheckpointPolicy::every_capsules(k), &format!("k{k}"));
        last_scrape = r.scrape.clone();
        if k == 256 {
            report.metric(
                "ckpt_k256_overhead_x",
                r.elapsed.as_secs_f64() / base.elapsed.as_secs_f64().max(1e-9),
            );
        }
        row(
            &[
                format!("every {k}"),
                f2(r.elapsed.as_secs_f64() * 1e3),
                s(r.checkpoints),
                s(r.pages_flushed),
                s(r.words_reclaimed),
                s(r.records),
            ],
            &widths,
        );
    }
    report.embed_scrape(&last_scrape);
    report.emit();
    println!(
        "\n(each checkpoint also wrote a durable resume record; replay after a crash is \
         bounded by one epoch — see examples/checkpointed_run.rs)"
    );
}
