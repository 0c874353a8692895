//! The `service` workload: one worker process with one processor,
//! started through `ClusterBuilder::spawn`, fed an open-loop stream of
//! small jobs through the durable injector ring.
//!
//! The stream is open loop: job `i` is due at `i / RATE` seconds after
//! the stream starts, whatever happened to earlier jobs. Its latency runs
//! from the moment `submit` returns, when the job is durable, until
//! `InjectorQueue::status` reads `Done`. The submit call itself ends in a
//! disk flush whose time is set by the host's disk, not by the program,
//! so it is measured apart (`service.submit_us`), as is the whole span
//! from the due time (`service.job_due_p50_ms`).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppm::core::{dsl, Machine, Persist};
use ppm::pm::{LeaseState, PmConfig, Region, SlotPhase, Word};
use ppm::sched::cluster::{self, ClusterBuilder, ShardBuild};
use ppm::sched::{JobStatus, JobTicket, ServiceHandle, SessionMode};

use crate::spans::Spans;
use crate::{
    col, cpu_ms, median, op_begin, op_end, quantile, quiet_ops, repeat, rusage_ms, Args, Report,
    Rng,
};

const WORDS: usize = 1 << 22;
/// Jobs per stream. Frame pools are not reclaimed in service mode, so
/// the stream length is capped by the pool leak: at about 1,527 words a
/// job, 160 jobs use 93% of the default 262,144-word pool.
const JOBS: usize = 160;
/// Arrival rate of the open loop, jobs per second.
const RATE: f64 = 64.0;
/// Output words per job, split down to `GRAIN`-word leaves (32 leaf
/// capsules a job).
const SLICE: usize = 512;
const GRAIN: usize = 16;
/// Pause between checks for a due job while no job is in flight. While
/// one is, its status is polled without pausing: a sleeping poll loop
/// wakes every 70-80 µs, and since a stream's jobs all take about the
/// same time, every job of a stream would be seen `Done` on the same
/// poll, quantising the stream's latency in steps of a whole period.
const POLL: Duration = Duration::from_micros(20);
/// Each stopped stream file is recovered repeatedly for this long, and
/// at least [`RECOVERS`] times.
const RECOVER_WINDOW: Duration = Duration::from_millis(40);
const RECOVERS: usize = 5;
/// A job not `Done` this long after it was due counts failed.
const LATE: Duration = Duration::from_secs(1);
/// A job not `Done` this long after it was due is abandoned as lost.
const GIVE_UP: Duration = Duration::from_secs(10);
/// Worker CPU is sampled over this window between the lease reading
/// Alive and the first job (traced runs only).
const IDLE_WINDOW: Duration = Duration::from_millis(250);

/// The value job output word `i` must hold: derived from the seed so a
/// stale file can never pass the check.
fn expected(salt: Word, i: usize) -> Word {
    (i as Word + 1) ^ salt
}

fn salt_of(seed: u64) -> Word {
    Rng::new(seed).next_u64() >> 1
}

/// The construction every process of a stream replays: one output
/// region for the stream and the job kind `job/split`, which splits a
/// span into `job/mark` leaves.
fn build(salt: Word, out_slot: Arc<Mutex<Option<Region>>>) -> ShardBuild {
    Arc::new(move |m: &Machine, _shard: usize, k: Word| {
        let out = m.alloc_region(JOBS * SLICE);
        *out_slot.lock().expect("region slot poisoned") = Some(out);
        let mut set = dsl::CapsuleSet::new(m);
        let leaf = set.define("job/mark", move |st: &dsl::Span<Region>, k, ctx| {
            for i in st.lo..st.hi {
                ctx.pwrite(st.env.at(i), expected(salt, i))?;
            }
            Ok(dsl::Step::Jump(k))
        });
        let split = set.map_grain("job/split", GRAIN, leaf);
        split
            .setup(
                m,
                &dsl::Span {
                    env: out,
                    lo: 0,
                    hi: 0,
                },
                dsl::K(k),
            )
            .0
    })
}

fn job_args(out: Region, job: usize) -> Vec<Word> {
    let mut args = Vec::new();
    dsl::Span {
        env: out,
        lo: job * SLICE,
        hi: (job + 1) * SLICE,
    }
    .encode(&mut args);
    args
}

/// Entry point of the worker process: `worker <path> <shard> <seed>`.
///
/// The worker exits as soon as its parent is gone, so a benchmark that
/// is killed or aborts never leaves a spinning worker behind.
pub fn worker_main(argv: &[String]) {
    let [path, shard, seed] = argv else {
        eprintln!("perfbench worker: expected <path> <shard> <seed>");
        std::process::exit(2);
    };
    crate::exit_with_parent();
    let _ = std::fs::write(format!("{path}.pid"), std::process::id().to_string());
    let shard: usize = shard.parse().expect("shard index");
    let seed: u64 = seed.parse().expect("seed");
    let build = build(salt_of(seed), Arc::new(Mutex::new(None)));
    match cluster::run_worker(path, shard, &build) {
        Ok(rep) => std::process::exit(if rep.completed() { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            std::process::exit(1);
        }
    }
}

/// One job's observed lifecycle, in seconds since the stream started.
#[derive(Clone, Copy)]
struct Job {
    ticket: JobTicket,
    due: f64,
    submitted: f64,
    claimed: Option<f64>,
}

/// What one stream measured.
#[derive(Default)]
struct Stream {
    ok: bool,
    /// Share of CPU time the hypervisor took during the stream.
    steal: f64,
    setup_s: f64,
    worker_start_ms: f64,
    solve_s: f64,
    /// Each `cluster::recover` of the stopped file.
    recover_s: Vec<f64>,
    /// Share of CPU time the hypervisor took while they ran.
    recover_steal: f64,
    cpu_ms_per_job: f64,
    /// Submit returned → `Done`, per job.
    latency_ms: Vec<f64>,
    p50_ms: f64,
    p90_ms: f64,
    /// Median due time → `Done`.
    due_p50_ms: f64,
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    idle_cpu_share: f64,
    pool_words: f64,
    pool_used: f64,
    gen_late_ms: f64,
    rescues: u64,
}

fn wait_alive(handle: &ServiceHandle, limit: Duration) -> bool {
    let t = Instant::now();
    while t.elapsed() < limit {
        // The coordinator seeds the lease at seq 0; the worker's own
        // first heartbeat is seq 1.
        if matches!(handle.observer().lease(0), Some(l) if l.state == LeaseState::Alive && l.seq >= 1)
        {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

/// One service lifetime: spawn, (idle window), stream, drain, verify,
/// shut down, recover the stopped file. `trace` names the trace base
/// for a traced stream.
fn stream(args: &Args, n: usize, idle_window: bool, trace: Option<&Path>, spans: &Spans) -> Stream {
    let path = args.file(&format!("service-{n}.ppm"));
    let pid_path = PathBuf::from(format!("{}.pid", path.display()));
    let _ = std::fs::remove_file(&pid_path);
    let seed = args.seed.wrapping_mul(31).wrapping_add(n as u64);
    let salt = salt_of(seed);
    let out_slot = Arc::new(Mutex::new(None));
    let build = build(salt, out_slot.clone());
    let exe = std::env::current_exe().expect("current_exe");
    let mut s = Stream::default();
    op_begin();
    let root = spans.open("service.stream", 0);

    let t0 = Instant::now();
    let mut handle = spans
        .call("ClusterBuilder::spawn", root, || {
            ClusterBuilder::new(&path)
                .machine(PmConfig::parallel(1, WORDS))
                .workers(1)
                .spawn(&build, |shard| {
                    let mut cmd = std::process::Command::new(&exe);
                    cmd.arg("worker")
                        .arg(&path)
                        .arg(shard.to_string())
                        .arg(seed.to_string());
                    if let Some(base) = trace {
                        cmd.env(ppm::obs::TRACE_FILE_ENV, base);
                    }
                    cmd
                })
        })
        .expect("spawn the service worker");
    let t_spawned = Instant::now();
    let alive = spans.call("wait_alive", root, || {
        wait_alive(&handle, Duration::from_secs(10))
    });
    s.setup_s = t0.elapsed().as_secs_f64();
    s.worker_start_ms = t_spawned.elapsed().as_secs_f64() * 1e3;
    let out = out_slot
        .lock()
        .expect("region slot poisoned")
        .expect("spawn ran the build");

    if idle_window {
        let pid = (0..500)
            .find_map(|_| {
                let pid = std::fs::read_to_string(&pid_path).ok();
                if pid.is_none() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                pid
            })
            .unwrap_or_default();
        let c0 = cpu_ms(&pid);
        let t = Instant::now();
        std::thread::sleep(IDLE_WINDOW);
        let c1 = cpu_ms(&pid);
        s.idle_cpu_share = match (c0, c1) {
            (Some(a), Some(b)) => (b - a) / (t.elapsed().as_secs_f64() * 1e3),
            _ => f64::NAN,
        };
    }

    // The open loop.
    let start = Instant::now();
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut pending: Vec<Job> = Vec::new();
    let mut due_latencies: Vec<f64> = Vec::new();
    let (mut late, mut lost) = (0u64, 0u64);
    let mut next = 0usize;
    while alive && (next < JOBS || !pending.is_empty()) {
        let now = Instant::now();
        let due = next as f64 / RATE;
        if next < JOBS && secs(now) >= due {
            s.gen_late_ms = s.gen_late_ms.max((secs(now) - due) * 1e3);
            let a = job_args(out, next);
            let t = spans.now();
            let ticket = handle.submit("job/split", &a);
            let submitted = Instant::now();
            spans.record("submit", root, t, spans.at(submitted));
            s.submit_us
                .push(submitted.duration_since(now).as_secs_f64() * 1e6);
            match ticket {
                Ok(ticket) => pending.push(Job {
                    ticket,
                    due,
                    submitted: secs(submitted),
                    claimed: None,
                }),
                Err(e) => {
                    eprintln!("perfbench: submit of job {next} failed: {e}");
                    lost += 1;
                }
            }
            next += 1;
            continue;
        }
        let mut k = 0;
        while k < pending.len() {
            let j = &mut pending[k];
            let t = secs(Instant::now());
            match handle.queue().status(j.ticket) {
                JobStatus::InFlight(SlotPhase::Claimed | SlotPhase::Running) => {
                    j.claimed.get_or_insert(t);
                }
                JobStatus::InFlight(_) => {}
                JobStatus::Done { .. } => {
                    let j = pending.swap_remove(k);
                    let claimed = j.claimed.unwrap_or(t);
                    due_latencies.push((t - j.due) * 1e3);
                    s.latency_ms.push((t - j.submitted) * 1e3);
                    s.queue_wait_ms.push((claimed - j.submitted) * 1e3);
                    s.run_ms.push((t - claimed) * 1e3);
                    if t - j.due > LATE.as_secs_f64() {
                        late += 1;
                    }
                    let job = spans.record(
                        "job",
                        root,
                        spans_at(spans, start, j.due),
                        spans_at(spans, start, t),
                    );
                    spans.record(
                        "queued",
                        job,
                        spans_at(spans, start, j.submitted),
                        spans_at(spans, start, claimed),
                    );
                    spans.record(
                        "running",
                        job,
                        spans_at(spans, start, claimed),
                        spans_at(spans, start, t),
                    );
                    let a = spans.now();
                    match handle.await_job(j.ticket, LATE) {
                        Ok(r) => s.rescues += r.rescues(),
                        Err(e) => {
                            eprintln!("perfbench: await of a done ticket failed: {e}");
                            lost += 1;
                        }
                    }
                    spans.record("await_job", root, a, spans.now());
                    continue;
                }
                JobStatus::Lost => {
                    pending.swap_remove(k);
                    lost += 1;
                    continue;
                }
            }
            if t - j.due > GIVE_UP.as_secs_f64() {
                pending.swap_remove(k);
                lost += 1;
                continue;
            }
            k += 1;
        }
        if pending.is_empty() {
            std::thread::sleep(POLL);
        } else {
            std::hint::spin_loop();
        }
    }
    let drained = spans
        .call("drain", root, || handle.drain(Duration::from_secs(10)))
        .is_ok()
        && handle.depth() == 0;
    let written = (0..JOBS * SLICE)
        .all(|i| handle.observer().machine().mem().load(out.at(i)) == expected(salt, i));
    s.solve_s = start.elapsed().as_secs_f64();
    let m = handle.observer().machine();
    s.pool_words = m.pool_words() as f64;
    s.pool_used = (0..m.procs()).map(|p| m.pool_watermark(p) as f64).sum();

    let cpu0 = rusage_ms(true);
    let report = spans.call("shutdown", root, || handle.shutdown());
    s.cpu_ms_per_job = (rusage_ms(true) - cpu0) / JOBS as f64;
    // A recover of the stopped file takes under a millisecond, with a
    // long tail; a window of them a stream gives the run's median enough
    // samples, and the window is long enough to tell whether the
    // hypervisor took CPU time during it.
    let mut modes = Vec::new();
    let (w, steal0) = (Instant::now(), crate::steal_ticks());
    while modes.len() < RECOVERS || w.elapsed() < RECOVER_WINDOW {
        let t = Instant::now();
        let rec = spans.call("cluster::recover", root, || cluster::recover(&path, &build));
        s.recover_s.push(t.elapsed().as_secs_f64());
        modes.push(rec.map(|r| r.mode));
    }
    s.recover_steal = crate::steal_share(crate::steal_ticks() - steal0, w.elapsed());
    spans.close(root);
    let recovered = modes
        .iter()
        .all(|m| matches!(m, Ok(SessionMode::AlreadyComplete)));

    let resolved = s.latency_ms.len();
    crate::count_sub_ops(JOBS as u64, (JOBS - resolved) as u64 + late);
    s.p50_ms = median(&s.latency_ms);
    s.p90_ms = quantile(&s.latency_ms, 0.9);
    s.due_p50_ms = median(&due_latencies);
    s.ok =
        alive && lost == 0 && resolved == JOBS && drained && written && report.is_ok() && recovered;
    if !s.ok {
        eprintln!(
            "perfbench: stream {n} failed: alive={alive} resolved={resolved}/{JOBS} lost={lost} \
             drained={drained} written={written} shutdown={} recover={:?}",
            report.is_ok(),
            modes
        );
    }
    eprintln!(
        "  stream {n}: p50 {:.3} ms, p90 {:.3} ms, from due {:.3} ms, submit {:.0} us, queued {:.3} ms, \
         running {:.3} ms, recover {:.3} ms ({} at {:.1}% steal)",
        s.p50_ms,
        s.p90_ms,
        s.due_p50_ms,
        median(&s.submit_us),
        median(&s.queue_wait_ms),
        median(&s.run_ms),
        median(&s.recover_s) * 1e3,
        s.recover_s.len(),
        100.0 * s.recover_steal
    );
    s.steal = op_end(s.ok);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&pid_path);
    s
}

/// Recorder time of a point `secs` seconds after `start`.
fn spans_at(spans: &Spans, start: Instant, secs: f64) -> u64 {
    spans.at(start + Duration::from_secs_f64(secs.max(0.0)))
}

pub fn e2e(args: &Args, report: &mut Report) {
    let spans = Spans::new(false);
    let streams = repeat(args.deadline(Instant::now()), |n| {
        stream(args, n, false, None, &spans)
    });
    report.correct = streams.iter().all(|s| s.ok);
    let kept = quiet_ops(&streams, |s| s.steal);
    report.put("setup_s", median(&col(&kept, |s| s.setup_s)), "s");
    report.put("solve_s", median(&col(&kept, |s| s.solve_s)), "s");
    let recovers: Vec<f64> = quiet_ops(&streams, |s| s.recover_steal)
        .iter()
        .flat_map(|s| s.recover_s.iter().copied())
        .collect();
    report.put("recover_s", median(&recovers), "s");
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|s| s.latency_ms.iter().copied())
        .collect();
    report.put("job_p50_ms", median(&latencies), "ms");
    report.put(
        "cpu_ms_per_op",
        median(&col(&kept, |s| s.cpu_ms_per_job)),
        "ms",
    );
    eprintln!(
        "  {} streams of {JOBS} jobs at {RATE} jobs/s",
        streams.len()
    );
}

/// Per-layer numbers of the `service` workload, from interleaved
/// untraced and traced streams.
pub fn layers(args: &Args, report: &mut Report, spans: &Spans, deadline: Instant) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut round = 0;
    while round < 1 || (Instant::now() < deadline && round < 8) {
        plain.push(stream(args, 2 * round, true, None, &Spans::new(false)));
        let base = args.file(&format!("service-trace-{round}"));
        std::env::set_var(ppm::obs::TRACE_FILE_ENV, &base);
        traced.push(stream(args, 2 * round + 1, false, Some(&base), spans));
        std::env::remove_var(ppm::obs::TRACE_FILE_ENV);
        remove_family(&base);
        round += 1;
    }
    report.correct &= plain.iter().chain(&traced).all(|s| s.ok);
    let all = |f: fn(&Stream) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let m = |f: fn(&Stream) -> f64| median(&col(&plain, f));
    let per_job = m(|s| s.pool_used) / JOBS as f64;
    report.put("service.job_p90_ms", m(|s| s.p90_ms), "ms");
    report.put("service.job_due_p50_ms", m(|s| s.due_p50_ms), "ms");
    report.put("service.worker_start_ms", m(|s| s.worker_start_ms), "ms");
    report.put("service.submit_us", median(&all(|s| &s.submit_us)), "us");
    report.put(
        "service.queue_wait_ms",
        median(&all(|s| &s.queue_wait_ms)),
        "ms",
    );
    report.put("service.run_ms", median(&all(|s| &s.run_ms)), "ms");
    report.put("service.idle_cpu_share", m(|s| s.idle_cpu_share), "ratio");
    report.put("service.pool_words_per_job", per_job, "words");
    report.put(
        "service.jobs_to_exhaustion",
        m(|s| s.pool_words) / per_job,
        "count",
    );
    report.put(
        "service.pool_headroom_words",
        m(|s| s.pool_words - s.pool_used),
        "words",
    );
    report.put(
        "service.gen_late_ms",
        col(&plain, |s| s.gen_late_ms)
            .into_iter()
            .fold(0.0, f64::max),
        "ms",
    );
    report.put(
        "service.rescues",
        plain.iter().map(|s| s.rescues).sum::<u64>() as f64,
        "count",
    );
    report.put(
        "service.trace_overhead_x",
        median(&col(&traced, |s| s.p50_ms)) / m(|s| s.p50_ms),
        "x",
    );
    eprintln!(
        "  service: pool {:.0} words, {:.0} used after {JOBS} jobs ({per_job:.1} words a job, \
         never reclaimed: a known leak), headroom {:.0} words",
        m(|s| s.pool_words),
        m(|s| s.pool_used),
        m(|s| s.pool_words - s.pool_used)
    );
}

/// Removes a trace base file and every sidecar named after it.
fn remove_family(base: &Path) {
    let (Some(dir), Some(stem)) = (base.parent(), base.file_name()) else {
        return;
    };
    let stem = stem.to_string_lossy().to_string();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&stem) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}
