//! `ppm-perfbench` — the repository benchmark.
//!
//! One process drives one workload through the public `ppm` API and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (untraced runs); with `--trace 1` they
//! are the per-layer ones, taken from a separate traced run.
//!
//! ```text
//! ppm-perfbench --workload <sort|crash|service> --seed <n> --seconds <s>
//!               --trace <0|1> --workdir <dir>
//! ```
//!
//! `perfbench/run.py` builds this package and runs it under a watchdog;
//! see `perfbench/README.md` for the workloads and metric definitions.

mod ladder;
mod service;
mod sort;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A single operation (one solve, one job stream) that runs longer than
/// this is a stall: the watchdog counts it failed and ends the run.
const OP_LIMIT: Duration = Duration::from_secs(60);
/// Whole-run cap, inside the 180 s a run may take.
const RUN_LIMIT: Duration = Duration::from_secs(165);

/// Operations attempted and failed so far; read by the watchdog and the
/// panic hook so a stalled or crashed run still reports its tally.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
/// Milliseconds since `T0` at which the current operation started
/// (0 = no operation in flight).
static OP_START_MS: AtomicU64 = AtomicU64::new(0);
/// Host steal ticks when the current operation started.
static OP_STEAL: AtomicU64 = AtomicU64::new(0);
static FINISHED: AtomicBool = AtomicBool::new(false);
static T0: OnceLock<Instant> = OnceLock::new();

fn since_t0_ms() -> u64 {
    T0.get_or_init(Instant::now).elapsed().as_millis() as u64 + 1
}

/// Marks the start of one operation: counts it attempted and arms the
/// stall watchdog.
pub fn op_begin() {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    OP_STEAL.store(steal_ticks(), Ordering::SeqCst);
    OP_START_MS.store(since_t0_ms(), Ordering::SeqCst);
}

/// Marks the end of the current operation, failed or not. Returns the
/// share of the machine's CPU time the hypervisor took away during it.
pub fn op_end(ok: bool) -> f64 {
    if !ok {
        FAILED.fetch_add(1, Ordering::SeqCst);
    }
    let ms = since_t0_ms().saturating_sub(OP_START_MS.swap(0, Ordering::SeqCst));
    let stolen = steal_ticks().saturating_sub(OP_STEAL.load(Ordering::SeqCst));
    steal_share(stolen, Duration::from_millis(ms.max(1)))
}

/// Share of the machine's CPU time that `ticks` of host steal are over
/// a wall-clock window of `wall`.
pub fn steal_share(ticks: u64, wall: Duration) -> f64 {
    ticks as f64 * TICK_MS / (cpus() * wall.as_secs_f64().max(1e-3) * 1e3)
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Steal share at or below which an operation counts as quiet.
const QUIET_STEAL: f64 = 0.03;

/// The operations of a run that the end-to-end medians are taken over:
/// those during which the hypervisor took at most [`QUIET_STEAL`] of the
/// machine's CPU time (`steal`), or the quietest quarter when fewer than
/// a quarter were that quiet. On a shared host, steal comes in bursts
/// that stretch every wall-clock time they overlap; this keeps them out
/// of the medians. Every operation, kept or not, is counted attempted
/// and checked.
pub fn quiet_ops<T>(ops: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let shares: Vec<f64> = ops.iter().map(&steal).collect();
    let cut = QUIET_STEAL.max(quantile(&shares, 0.25));
    let kept: Vec<&T> = ops.iter().filter(|o| steal(o) <= cut).collect();
    eprintln!(
        "  kept {} of {} operations, those with host steal at most {:.1}% (max seen {:.1}%)",
        kept.len(),
        ops.len(),
        100.0 * cut,
        100.0 * shares.iter().copied().fold(0.0, f64::max)
    );
    kept
}

/// Counts operations inside a larger one: the jobs of a stream, each
/// attempted, failed when late or lost. The stream itself is one more
/// attempted operation.
pub fn count_sub_ops(attempted: u64, failed: u64) {
    ATTEMPTED.fetch_add(attempted, Ordering::SeqCst);
    FAILED.fetch_add(failed, Ordering::SeqCst);
}

fn failure_line() -> String {
    let attempted = ATTEMPTED.load(Ordering::SeqCst).max(1);
    let failed = (FAILED.load(Ordering::SeqCst) + 1).min(attempted);
    format!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
}

/// Ends the process with a failed result line. Every path that cannot
/// finish the run goes through here, so nothing hangs silently; a live
/// service worker notices its parent is gone and exits too.
fn abort_run(why: &str) -> ! {
    if !FINISHED.swap(true, Ordering::SeqCst) {
        eprintln!("perfbench: {why}");
        println!("{}", failure_line());
    }
    std::process::exit(1);
}

fn start_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = since_t0_ms();
        let op = OP_START_MS.load(Ordering::SeqCst);
        if op != 0 && now.saturating_sub(op) > OP_LIMIT.as_millis() as u64 {
            abort_run(&format!("operation stalled for more than {OP_LIMIT:?}"));
        }
        if now > RUN_LIMIT.as_millis() as u64 {
            abort_run(&format!("run exceeded {RUN_LIMIT:?}"));
        }
    });
}

/// Exits this process as soon as its parent is gone. The benchmark
/// watches `run.py` and the service worker watches the benchmark, so
/// killing any process of a run ends the ones below it.
pub fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(20));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
}

/// Run parameters from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub workdir: PathBuf,
}

impl Args {
    /// When the measured loop should stop starting new operations.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs(self.seconds)
    }

    /// A path inside the run's work directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.workdir.join(name)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = it.next().ok_or(format!("--{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !["sort", "crash", "service"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let seconds = num("seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
        workdir: PathBuf::from(get("workdir")?),
    })
}

/// The metrics one run reports, by name, in print order.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Every output check passed.
    pub correct: bool,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            correct: true,
        }
    }

    /// Records a metric. A value that is not a finite number (a ratio
    /// over an empty base) is reported as 0 and flagged on stderr.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: {name} is undefined ({value}); reporting 0");
            0.0
        };
        self.metrics.push((name.to_string(), v, unit));
    }

    fn json(&self) -> String {
        let body = self
            .metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let attempted = ATTEMPTED.load(Ordering::SeqCst).max(1);
        let failed = FAILED.load(Ordering::SeqCst);
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            self.correct && failed == 0
        )
    }

    fn print_table(&self) {
        for (k, v, u) in &self.metrics {
            eprintln!("  {k:<32} {v:>16.6} {u}");
        }
    }
}

/// Operations every measured loop runs even when they overrun the time
/// budget, so each median has a base.
const MIN_OPS: usize = 3;

/// Runs `op(i)` until `deadline`, at least [`MIN_OPS`] times.
pub fn repeat<T>(deadline: Instant, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let mut out = Vec::new();
    while out.len() < MIN_OPS || Instant::now() < deadline {
        out.push(op(out.len()));
    }
    out
}

/// One field of every operation.
pub fn col<T>(xs: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    xs.iter().map(f).collect()
}

/// Median of `xs` (the mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Deterministic input generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Linux reports another process's CPU time in clock ticks of
/// `USER_HZ`, which the kernel ABI fixes at 100 per second.
const TICK_MS: f64 = 10.0;

/// `utime + stime` of process `pid` in milliseconds, at tick resolution.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.len() == 2).then(|| (f[0] + f[1]) as f64 * TICK_MS)
}

/// Host steal time so far, in ticks summed over this machine's CPUs
/// (0 where the kernel does not report it).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and getrusage of 64-bit Linux");

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: the two CPU times, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time in ms, at microsecond resolution: of this
/// process (all threads, exited ones included) with `children` false,
/// of its reaped children with `children` true.
pub fn rusage_ms(children: bool) -> f64 {
    let who = if children { -1 } else { 0 }; // RUSAGE_CHILDREN, RUSAGE_SELF
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `u` is an aligned, writable `struct rusage` in the 64-bit
    // Linux layout (checked by the `compile_error!` gate above), which
    // `getrusage` fills and does not keep.
    if unsafe { getrusage(who, &mut u) } != 0 {
        return f64::NAN;
    }
    (u.utime.sec + u.stime.sec) as f64 * 1e3 + (u.utime.usec + u.stime.usec) as f64 / 1e3
}

/// Seconds of a traced run left to the ladder and to the one round each
/// of the other two workloads; the run's own workload gets the rest of
/// `--seconds`, so a traced run lasts about as long as an untraced one.
const SECONDARY_S: u64 = 16;

/// The traced run: every per-layer metric. The layer ladder runs first;
/// then each workload section, the run's own workload for most of the
/// time budget and the other two for one round each, so the run prints
/// every per-layer metric. Sections run in the order sort, crash,
/// service because `crash.work_x` is taken over the sort's W.
fn layers(args: &Args, report: &mut Report) {
    let spans = spans::Spans::new(true);
    let rungs = ladder::measure(args, report);
    let deadline = |name: &str| {
        let own = Duration::from_secs(args.seconds.saturating_sub(SECONDARY_S).max(4));
        Instant::now()
            + if args.workload == name {
                own
            } else {
                Duration::ZERO
            }
    };
    let sort_work = sort::sort_layers(args, report, &spans, &rungs, deadline("sort"));
    sort::crash_layers(args, report, &spans, sort_work, deadline("crash"));
    service::layers(args, report, &spans, deadline("service"));
    spans.finish(&args.file("bench-spans.jsonl"));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        service::worker_main(&argv[1..]);
        return;
    }
    T0.get_or_init(Instant::now);
    std::panic::set_hook(Box::new(|info| {
        abort_run(&format!("panic: {info}"));
    }));
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        std::process::exit(2);
    }
    start_watchdog();
    exit_with_parent();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let steal0 = steal_ticks();
    let mut report = Report::new();
    match (args.workload.as_str(), args.trace) {
        (_, true) => layers(&args, &mut report),
        ("sort", false) => sort::sort_e2e(&args, &mut report),
        ("crash", false) => sort::crash_e2e(&args, &mut report),
        ("service", false) => service::e2e(&args, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    if FINISHED.swap(true, Ordering::SeqCst) {
        return;
    }
    // Time the hypervisor ran something else on this machine's CPUs:
    // wall-clock metrics of a run with a large share are inflated.
    let wall_ticks = T0.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3 / TICK_MS;
    eprintln!(
        "  host steal during the run: {:.1}% of CPU time",
        100.0 * (steal_ticks() - steal0) as f64 / (cpus() * wall_ticks)
    );
    report.print_table();
    println!("{}", report.json());
}
