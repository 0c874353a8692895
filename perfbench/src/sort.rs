//! The `sort` and `crash` workloads: a durable (mmap) samplesort through
//! `Runtime` and `SampleSort::pcomp`, fault-free or killed mid-run and
//! recovered in a fresh session.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ppm::algs::{samplesort_pool_words, SampleSort};
use ppm::obs::SpanSink;
use ppm::pm::{FaultConfig, PmConfig, StatsSnapshot, Word};
use ppm::sched::{CheckpointPolicy, CheckpointSummary, Runtime, RuntimeConfig, SessionMode};

use crate::spans::{analyze, Spans};
use crate::{
    col, median, op_begin, op_end, quiet_ops, repeat, rusage_ms, steal_share, steal_ticks, Args,
    Report, Rng,
};

/// Keys per solve.
const N: usize = 1 << 16;
/// Processors of the measured solves. One, not two: on the 2-vCPU
/// reference host, runs that kept both vCPUs busy lost up to 44% of
/// their CPU time to the hypervisor and P = 2 solve times swung 2x from
/// run to run; P = 2 was also slower there (0.89 s against 0.73 s).
const PROCS: usize = 1;
/// Processors of the traced run's steal probe, which exercises the
/// deque and steal path the one-processor solves never take.
const PROBE_PROCS: usize = 2;
/// Persistent words: input, output, metadata and two samplesort pools.
const WORDS: usize = 1 << 24;
/// Each `sort` solve's clean file is reopened repeatedly for this long,
/// and at least [`REOPENS`] times.
const REOPEN_WINDOW: Duration = Duration::from_millis(20);
const REOPENS: usize = 3;
/// Soft-fault probability per access in the `crash` workload: within
/// the paper's f <= 1/(2C) for this kernel's measured C of about 3.4k.
const CRASH_F: f64 = 1e-4;
/// Access at which the processor hard-faults in the `crash` workload,
/// about half of the sort's accesses: the all-processors-dead event
/// that models `kill -9`.
const KILL_AT: u64 = 480_000;

/// The seeded keys of solve `i` and their oracle order.
fn keys(seed: u64, i: usize) -> (Vec<Word>, Vec<Word>) {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
    let input: Vec<Word> = (0..N).map(|_| rng.next_u64() >> 16).collect();
    let mut sorted = input.clone();
    sorted.sort_unstable();
    (input, sorted)
}

fn config(procs: usize, fault: FaultConfig, checkpoint: bool) -> RuntimeConfig {
    let cfg = RuntimeConfig::new(PmConfig::parallel(procs, WORDS).with_fault(fault))
        .with_pool_words(samplesort_pool_words(N));
    if checkpoint {
        cfg
    } else {
        cfg.with_checkpoint(CheckpointPolicy::disabled())
    }
}

/// The soft-fault adversary of crash solve `i`.
fn soft(seed: u64, i: usize, session: u64) -> FaultConfig {
    FaultConfig::soft(
        CRASH_F,
        seed ^ ((i as u64) << 20) ^ (session << 40) ^ 0xC0A5,
    )
}

/// Sums the series of one counter in a rendered metrics scrape.
fn scrape_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|r| r.starts_with(' ') || r.starts_with('{'))
        })
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

/// Sets `PPM_TRACE_FILE` for the machines created and the runs started
/// while it is set. Returns the span sidecar path to analyse.
fn trace_on(base: &Path) -> PathBuf {
    std::env::set_var(ppm::obs::TRACE_FILE_ENV, base);
    SpanSink::path_for(base)
}

fn trace_off(base: &Path) {
    std::env::remove_var(ppm::obs::TRACE_FILE_ENV);
    let _ = std::fs::remove_file(base);
}

/// The end-to-end times of one solve of either batch workload.
#[derive(Default)]
struct Times {
    ok: bool,
    /// Share of CPU time the hypervisor took during the solve.
    steal: f64,
    setup_s: f64,
    solve_s: f64,
    /// Each timed recovery: the reopens of a clean `sort` file, the one
    /// recovery of a `crash` solve.
    recovers: Vec<f64>,
    /// Share of CPU time the hypervisor took while they ran.
    recover_steal: f64,
    cpu_ms: f64,
}

/// What one solve measured.
#[derive(Default)]
struct Solve {
    t: Times,
    flush_ms: f64,
    stats: StatsSnapshot,
    ckpt: CheckpointSummary,
    steal_attempts: f64,
    steals: f64,
}

/// One fault-free durable solve: create + load (set-up), run, flush and
/// verify; then reopen the cleanly closed file and confirm the result is
/// already complete (the restart a user pays after a clean shutdown).
fn sort_solve(args: &Args, i: usize, procs: usize, checkpoint: bool, spans: &Spans) -> Solve {
    let path = args.file(&format!("sort-{i}.ppm"));
    let (input, sorted) = keys(args.seed, i);
    let mut s = Solve::default();
    op_begin();
    let root = spans.open("sort.solve", 0);
    let t0 = Instant::now();
    let rt = spans
        .call("Runtime::create", root, || {
            Runtime::create(&path, config(procs, FaultConfig::none(), checkpoint))
        })
        .expect("create the machine file");
    let ss = SampleSort::new(rt.machine(), N);
    spans.call("load_input", root, || ss.load_input(rt.machine(), &input));
    s.t.setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = rusage_ms(false);
    let t1 = Instant::now();
    let rep = spans.call("run_or_recover", root, || rt.run_or_recover(&ss.pcomp()));
    let tf = Instant::now();
    spans
        .call("mark_clean", root, || rt.mark_clean())
        .expect("flush the result");
    s.flush_ms = tf.elapsed().as_secs_f64() * 1e3;
    let out = spans.call("read_output", root, || ss.read_output(rt.machine()));
    s.t.ok = rep.completed() && out == sorted;
    s.t.solve_s = t1.elapsed().as_secs_f64();
    s.t.cpu_ms = rusage_ms(false) - cpu0;
    if let Some(run) = &rep.run {
        s.stats = run.stats.clone();
        s.ckpt = run.checkpoints;
    }
    let scrape = rt.machine().obs().registry().render();
    s.steal_attempts = scrape_sum(&scrape, "ppm_steal_attempts_total");
    s.steals = scrape_sum(&scrape, "ppm_steals_total");
    drop(rt);

    // A reopen of the clean file takes under a millisecond, with a long
    // tail; a window of them a solve gives the run's median enough
    // samples, and the window is long enough to tell whether the
    // hypervisor took CPU time during it.
    let (w, steal0) = (Instant::now(), steal_ticks());
    while s.t.recovers.len() < REOPENS || w.elapsed() < REOPEN_WINDOW {
        let t2 = Instant::now();
        let rt = spans
            .call("Runtime::open", root, || {
                Runtime::open(&path, config(procs, FaultConfig::none(), checkpoint))
            })
            .expect("reopen the machine file");
        let ss = SampleSort::new(rt.machine(), N);
        let rec = spans.call("run_or_recover", root, || rt.run_or_recover(&ss.pcomp()));
        s.t.recovers.push(t2.elapsed().as_secs_f64());
        s.t.ok &=
            rec.mode == SessionMode::AlreadyComplete && ss.read_output(rt.machine()) == sorted;
        drop(rt);
    }
    s.t.recover_steal = steal_share(steal_ticks() - steal0, w.elapsed());
    spans.close(root);
    let _ = std::fs::remove_file(&path);
    if !s.t.ok {
        eprintln!("perfbench: sort solve {i} missed the oracle");
    }
    s.t.steal = op_end(s.t.ok);
    s
}

/// What one crash-and-recover solve measured.
#[derive(Default)]
struct Crash {
    t: Times,
    open_ms: f64,
    died: bool,
    mode: Option<SessionMode>,
    resumed: usize,
    restarts: u64,
    recovery_capsules: u64,
    ckpt_records: u64,
    work: u64,
}

/// One crash solve: the sort under soft faults until every processor
/// hard-faults, then `Runtime::open` and `run_or_recover` in a fresh
/// session, flushed and checked against the oracle.
fn crash_solve(args: &Args, i: usize, spans: &Spans) -> Crash {
    let path = args.file(&format!("crash-{i}.ppm"));
    let (input, sorted) = keys(args.seed, i);
    let mut c = Crash::default();
    op_begin();
    let root = spans.open("crash.solve", 0);
    let t0 = Instant::now();
    let mut fault = soft(args.seed, i, 1);
    for p in 0..PROCS {
        fault = fault.with_scheduled_hard_fault(p, KILL_AT);
    }
    let rt = spans
        .call("Runtime::create", root, || {
            Runtime::create(&path, config(PROCS, fault, true))
        })
        .expect("create the machine file");
    let ss = SampleSort::new(rt.machine(), N);
    spans.call("load_input", root, || ss.load_input(rt.machine(), &input));
    c.t.setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = rusage_ms(false);
    let t1 = Instant::now();
    let dead = spans.call("run_or_recover", root, || rt.run_or_recover(&ss.pcomp()));
    c.died = !dead.completed();
    if let Some(run) = &dead.run {
        c.restarts += run.stats.capsule_restarts();
        c.ckpt_records = run.checkpoints.records_written;
        c.work += run.stats.total_work();
    }
    drop(rt);

    let t2 = Instant::now();
    let rt = spans
        .call("Runtime::open", root, || {
            Runtime::open(&path, config(PROCS, soft(args.seed, i, 2), true))
        })
        .expect("reopen the machine file");
    c.open_ms = t2.elapsed().as_secs_f64() * 1e3;
    let ss = SampleSort::new(rt.machine(), N);
    let rec = spans.call("run_or_recover", root, || rt.run_or_recover(&ss.pcomp()));
    spans
        .call("mark_clean", root, || rt.mark_clean())
        .expect("flush the result");
    c.t.recovers.push(t2.elapsed().as_secs_f64());
    let out = spans.call("read_output", root, || ss.read_output(rt.machine()));
    c.t.solve_s = t1.elapsed().as_secs_f64();
    c.t.cpu_ms = rusage_ms(false) - cpu0;
    c.mode = Some(rec.mode);
    c.resumed = rec.resumed;
    if let Some(run) = &rec.run {
        c.restarts += run.stats.capsule_restarts();
        c.recovery_capsules = run.stats.capsule_completions;
        c.work += run.stats.total_work();
    }
    c.t.ok = c.died && rec.completed() && out == sorted;
    drop(rt);
    spans.close(root);
    let _ = std::fs::remove_file(&path);
    if !c.died {
        eprintln!("perfbench: crash solve {i} finished before its processors died");
    } else if !c.t.ok {
        eprintln!(
            "perfbench: crash solve {i} missed the oracle ({:?})",
            c.mode
        );
    }
    c.t.steal = op_end(c.t.ok);
    c.t.recover_steal = c.t.steal;
    c
}

/// The end-to-end metrics of a batch workload over its quiet solves; a
/// job is one solve, from the start of its set-up to its verified result.
fn put_batch_e2e(report: &mut Report, solves: &[&Times]) {
    report.correct = solves.iter().all(|t| t.ok);
    let kept = quiet_ops(solves, |t| t.steal);
    let m = |f: fn(&Times) -> f64| median(&kept.iter().map(|t| f(t)).collect::<Vec<_>>());
    report.put("setup_s", m(|t| t.setup_s), "s");
    report.put("solve_s", m(|t| t.solve_s), "s");
    let recovers: Vec<f64> = quiet_ops(solves, |t| t.recover_steal)
        .iter()
        .flat_map(|t| t.recovers.iter().copied())
        .collect();
    report.put("recover_s", median(&recovers), "s");
    report.put("job_p50_ms", m(|t| (t.setup_s + t.solve_s) * 1e3), "ms");
    report.put("cpu_ms_per_op", m(|t| t.cpu_ms), "ms");
    let list: Vec<String> = kept.iter().map(|t| format!("{:.3}", t.solve_s)).collect();
    eprintln!("  solve_s of the kept solves: {}", list.join(" "));
}

pub fn sort_e2e(args: &Args, report: &mut Report) {
    let spans = Spans::new(false);
    let solves = repeat(args.deadline(Instant::now()), |i| {
        sort_solve(args, i, PROCS, true, &spans)
    });
    put_batch_e2e(report, &solves.iter().map(|s| &s.t).collect::<Vec<_>>());
}

pub fn crash_e2e(args: &Args, report: &mut Report) {
    let spans = Spans::new(false);
    let solves = repeat(args.deadline(Instant::now()), |i| {
        crash_solve(args, i, &spans)
    });
    put_batch_e2e(report, &solves.iter().map(|c| &c.t).collect::<Vec<_>>());
}

/// Layer rungs the residual of `sort.unexplained_share` is taken over.
pub struct Rungs {
    pub pread_ns: f64,
    pub pwrite_ns: f64,
    pub stage_flush_ns_per_word: f64,
    pub flush_dirty_us_per_page: f64,
    pub capsule_ns: f64,
}

/// Per-layer numbers of the `sort` workload: counts from the public
/// reports of untraced solves, W and D from `ppm-trace` over a traced
/// solve's span sidecar, the checkpoint share from solves with
/// checkpointing disabled, the tracing overhead from interleaved traced
/// and untraced solves, and the deque and steal numbers from a P = 2
/// probe solve. Returns the median work W of the untraced solves (the
/// base of `crash.work_x`).
pub fn sort_layers(
    args: &Args,
    report: &mut Report,
    spans: &Spans,
    rungs: &Rungs,
    deadline: Instant,
) -> f64 {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut no_ckpt = Vec::new();
    let mut probe = Vec::new();
    let mut analysis = None;
    let mut round = 0;
    while round < 1 || (Instant::now() < deadline && round < 8) {
        let base = 4 * round;
        plain.push(sort_solve(args, base, PROCS, true, &Spans::new(false)));
        let trace_base = args.file(&format!("sort-trace-{round}"));
        let sidecar = trace_on(&trace_base);
        traced.push(sort_solve(args, base + 1, PROCS, true, spans));
        trace_off(&trace_base);
        if analysis.is_none() {
            analysis = Some(analyze(&sidecar));
        }
        let _ = std::fs::remove_file(&sidecar);
        no_ckpt.push(sort_solve(args, base + 2, PROCS, false, &Spans::new(false)));
        probe.push(sort_solve(
            args,
            base + 3,
            PROBE_PROCS,
            true,
            &Spans::new(false),
        ));
        round += 1;
    }
    let all = [&plain, &traced, &no_ckpt, &probe];
    report.correct &= all.iter().all(|xs| xs.iter().all(|s| s.t.ok));
    let a = analysis.expect("at least one traced solve");
    let m = |f: &dyn Fn(&Solve) -> f64| median(&col(&plain, f));
    let solve = m(&|s| s.t.solve_s);
    let work = m(&|s| s.stats.total_work() as f64);
    let capsules = m(&|s| s.stats.capsule_completions as f64);
    let reads = m(&|s| s.stats.total_reads as f64);
    let writes = m(&|s| s.stats.total_writes as f64);
    let staged = m(&|s| s.stats.staged_words as f64);
    let attempted = m(&|s| s.ckpt.attempted as f64);
    let pages = m(&|s| s.ckpt.pages_flushed as f64);
    let (tw, td) = (a.work as f64, a.depth as f64);
    let explained_ns = capsules * rungs.capsule_ns
        + reads * rungs.pread_ns
        + writes * rungs.pwrite_ns
        + staged * rungs.stage_flush_ns_per_word
        + pages * rungs.flush_dirty_us_per_page * 1e3;
    report.put("sort.work_words", work, "words");
    report.put("sort.capsules", capsules, "count");
    report.put(
        "sort.coalesce_ratio",
        m(&|s| s.stats.frame_coalesce_ratio().unwrap_or(f64::NAN)),
        "ratio",
    );
    let p = |f: &dyn Fn(&Solve) -> f64| median(&col(&probe, f));
    let attempts = p(&|s| s.steal_attempts);
    let steals = p(&|s| s.steals);
    report.put("sort.steal_attempts", attempts, "count");
    report.put("sort.steals", steals, "count");
    report.put("sort.steal_success_ratio", steals / attempts, "ratio");
    report.put("sort.ckpt_attempted", attempted, "count");
    report.put(
        "sort.ckpt_completed",
        m(&|s| s.ckpt.completed as f64),
        "count",
    );
    report.put(
        "sort.ckpt_skip_ratio",
        m(&|s| s.ckpt.skipped_busy as f64 / s.ckpt.attempted.max(1) as f64),
        "ratio",
    );
    report.put("sort.ckpt_pages_flushed", pages, "count");
    report.put(
        "sort.ckpt_share",
        1.0 - median(&col(&no_ckpt, |s| s.t.solve_s)) / solve,
        "ratio",
    );
    report.put("sort.flush_ms", m(&|s| s.flush_ms), "ms");
    report.put("sort.trace_W", tw, "words");
    report.put("sort.trace_D", td, "words");
    report.put("sort.parallelism", a.parallelism, "ratio");
    report.put("sort.p2_speedup", solve / p(&|s| s.t.solve_s), "x");
    report.put(
        "sort.bound_ratio",
        p(&|s| s.stats.time() as f64) / (tw / PROBE_PROCS as f64 + td),
        "ratio",
    );
    report.put(
        "sort.unexplained_share",
        1.0 - explained_ns / (PROCS as f64 * solve * 1e9),
        "ratio",
    );
    report.put(
        "sort.trace_overhead_x",
        median(&col(&traced, |s| s.t.solve_s)) / solve,
        "x",
    );
    eprintln!(
        "  sort: {} rounds of untraced / traced / checkpoint-disabled / P = 2 solves",
        plain.len()
    );
    work
}

/// Per-layer numbers of the `crash` workload, from interleaved untraced
/// and traced crash solves; `sort_work` is the fault-free W of the same
/// seed's keys.
pub fn crash_layers(
    args: &Args,
    report: &mut Report,
    spans: &Spans,
    sort_work: f64,
    deadline: Instant,
) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut wasted = None;
    let mut round = 0;
    while round < 1 || (Instant::now() < deadline && round < 8) {
        plain.push(crash_solve(args, 2 * round, &Spans::new(false)));
        let trace_base = args.file(&format!("crash-trace-{round}"));
        let sidecar = trace_on(&trace_base);
        traced.push(crash_solve(args, 2 * round + 1, spans));
        trace_off(&trace_base);
        if wasted.is_none() {
            wasted = Some(analyze(&sidecar).wasted_work as f64);
        }
        let _ = std::fs::remove_file(&sidecar);
        round += 1;
    }
    report.correct &= plain.iter().chain(&traced).all(|c| c.t.ok);
    let m = |f: &dyn Fn(&Crash) -> f64| median(&col(&plain, f));
    let fallbacks = plain
        .iter()
        .chain(&traced)
        .filter(|c| c.mode != Some(SessionMode::Resumed))
        .count();
    report.put("crash.restarts", m(&|c| c.restarts as f64), "count");
    report.put("crash.open_ms", m(&|c| c.open_ms), "ms");
    report.put("crash.resumed_frames", m(&|c| c.resumed as f64), "count");
    report.put("crash.replay_fallbacks", fallbacks as f64, "count");
    report.put(
        "crash.recovery_capsules",
        m(&|c| c.recovery_capsules as f64),
        "count",
    );
    report.put("crash.ckpt_records", m(&|c| c.ckpt_records as f64), "count");
    report.put("crash.work_x", m(&|c| c.work as f64) / sort_work, "x");
    report.put("crash.wasted_work", wasted.unwrap_or(f64::NAN), "words");
    report.put(
        "crash.trace_overhead_x",
        median(&col(&traced, |c| c.t.solve_s)) / m(&|c| c.t.solve_s),
        "x",
    );
    eprintln!(
        "  crash: {} rounds of untraced / traced crash solves, {} crash sessions",
        plain.len(),
        plain.len() + traced.len()
    );
}
