//! Real crash recovery: a worker process is SIGKILLed mid-computation and
//! a fresh process finishes the run off the durable file.
//!
//! This is the paper's hard-fault story lifted across process lifetimes.
//! The parent process:
//!
//! 1. spawns a child worker that creates a durable machine
//!    (`Machine::create_durable`) and runs a 200-task computation on the
//!    fault-tolerant scheduler, each task CAM-marking its own persistent
//!    cell (the §5 test-and-set idiom, so the mark is a once-only effect);
//! 2. watches the durable file until some — but not all — marker cells are
//!    set, then delivers `SIGKILL` (no handler can run: this is a real
//!    crash, not a simulated fault);
//! 3. opens a fresh `Runtime` session on the file, reports how much
//!    progress the dead run had made, and calls `run_or_recover`, which
//!    re-attaches fresh OS threads to the persisted scheduler state,
//!    resumes the crash frontier (or replays from the root when the
//!    frontier is not resumable), and drives the computation to
//!    completion;
//! 4. verifies exactly-once effects: every marker cell holds its expected
//!    value, cells the dead run already marked were never written again
//!    during recovery (observed with a write observer), and cells it had
//!    not marked were written exactly once.
//!
//! Run with `cargo run --release --example crash_recovery`.

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("child") => child(&args[2]),
        _ => parent(),
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("crash_recovery needs the unix durable backend (mmap); skipping");
}

#[cfg(unix)]
use scenario::{child, parent};

#[cfg(unix)]
mod scenario {
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use ppm::core::{par_for, Machine, PComp};
    use ppm::pm::{PmConfig, Region, Word, SUPERBLOCK_BYTES};
    use ppm::sched::{Runtime, RuntimeConfig};

    const PROCS: usize = 4;
    const WORDS: usize = 1 << 21;
    const TASKS: usize = 200;
    const SLOTS: usize = 1 << 12;
    /// Costed reads per task (busy work, so the run is killable mid-way).
    const BUSY_READS: usize = 64;
    /// Wall-clock pause per task, same purpose.
    const TASK_SLEEP: Duration = Duration::from_millis(3);
    /// Kill the child once this many markers are set.
    const KILL_AT: usize = 24;

    fn machine_cfg() -> PmConfig {
        PmConfig::parallel(PROCS, WORDS)
    }

    fn runtime_cfg() -> RuntimeConfig {
        RuntimeConfig::new(machine_cfg()).with_slots(SLOTS)
    }

    /// The deterministic user-allocation sequence. Creating run, probe,
    /// and recovering run all perform exactly these calls, in this order,
    /// so every region lands at the same persistent address.
    fn alloc_regions(m: &Machine) -> (Region, Region) {
        let scratch = m.alloc_region(1024);
        let markers = m.alloc_region(TASKS);
        (scratch, markers)
    }

    /// The computation: `TASKS` parallel tasks; task `i` performs busy
    /// reads, pauses, and CAMs marker cell `i` from unset to `i + 1`. The
    /// CAM makes the mark a once-only effect no matter how many times the
    /// task body runs (simulated-fault restarts and crash-recovery replay
    /// alike).
    fn build_comp(scratch: Region, markers: Region) -> PComp {
        par_for(
            "mark",
            (scratch, markers),
            TASKS,
            |&(scratch, markers): &(Region, Region), i, ctx| {
                for k in 0..BUSY_READS {
                    ctx.pread(scratch.at((i * 31 + k * 7) % scratch.len))?;
                }
                std::thread::sleep(TASK_SLEEP);
                ctx.pcam(markers.at(i), 0, i as Word + 1)
            },
        )
    }

    pub fn child(path: &str) {
        let rt = Runtime::create(path, runtime_cfg()).expect("create durable session");
        let (scratch, markers) = alloc_regions(rt.machine());
        let rep = rt.run_or_recover(&build_comp(scratch, markers));
        rt.mark_clean().expect("flush completed run");
        std::process::exit(if rep.completed() { 0 } else { 1 });
    }

    /// Byte offset of marker cell `i` inside the durable file.
    fn marker_offset(markers: Region, i: usize) -> u64 {
        (SUPERBLOCK_BYTES + markers.at(i) * 8) as u64
    }

    /// Reads how many marker cells are set, straight from the file (the
    /// page cache is coherent with the child's shared mapping).
    fn count_set_markers(file: &std::fs::File, markers: Region) -> usize {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; 8];
        (0..TASKS)
            .filter(|i| {
                file.read_exact_at(&mut buf, marker_offset(markers, *i))
                    .is_ok()
                    && u64::from_le_bytes(buf) != 0
            })
            .count()
    }

    pub fn parent() {
        // Guarded path: removed when the scenario ends, even on a panic.
        let file = ppm::pm::TempMachineFile::new("crash-recovery");
        let path = file.path();

        // The layout is deterministic, so a throwaway volatile machine of
        // the same shape tells the parent where the child's markers live.
        let markers = {
            let probe = Machine::new(machine_cfg());
            alloc_regions(&probe).1
        };

        println!("spawning worker child on {}", path.display());
        let exe = std::env::current_exe().expect("current_exe");
        let mut worker = std::process::Command::new(exe)
            .arg("child")
            .arg(path)
            .spawn()
            .expect("spawn child worker");

        // Wait for partial progress, then kill -9.
        let progress_at_kill = wait_for_progress(path, markers, &mut worker);
        worker.kill().expect("SIGKILL child");
        let status = worker.wait().expect("reap child");
        println!("killed child mid-run at {progress_at_kill}/{TASKS} markers (exit: {status:?})");
        assert!(
            progress_at_kill < TASKS,
            "child finished before the kill; raise TASK_SLEEP or lower KILL_AT"
        );

        // --- the recovering process's view ---
        let rt = Runtime::open(path, runtime_cfg()).expect("open session on durable file");
        let (scratch, markers) = alloc_regions(rt.machine());
        let pre: Vec<bool> = (0..TASKS)
            .map(|i| rt.machine().mem().load(markers.at(i)) != 0)
            .collect();
        let pre_count = pre.iter().filter(|b| **b).count();
        println!(
            "opened session (epoch {}): crash left {pre_count}/{TASKS} tasks marked",
            rt.machine().epoch()
        );
        assert!(pre_count > 0, "kill threshold guarantees some progress");
        assert!(pre_count < TASKS, "child was killed mid-run");

        // Count every recovery-time mutation of each marker cell.
        let write_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
        let wc = write_counts.clone();
        rt.machine()
            .mem()
            .set_observer(Some(Arc::new(move |addr, _prev, _new| {
                if markers.contains(addr) {
                    wc[addr - markers.start].fetch_add(1, Ordering::Relaxed);
                }
            })));

        let rec = rt.run_or_recover(&build_comp(scratch, markers));
        let run = rec.run.as_ref().expect("crash left the run incomplete");
        assert!(run.completed, "recovery must finish the computation");
        println!(
            "recovered ({:?}): {} in-flight deque entries found ({} jobs, {} locals, {} taken), \
             {} live restart pointers; recovery ran {} capsules in {:?}",
            rec.mode,
            rec.found_in_flight(),
            rec.found_jobs,
            rec.found_locals,
            rec.found_taken,
            rec.live_restart_pointers,
            run.stats.capsule_completions,
            run.elapsed,
        );

        // Exactly-once verification.
        let mut recovered = 0;
        for i in 0..TASKS {
            assert_eq!(
                rt.machine().mem().load(markers.at(i)),
                i as Word + 1,
                "marker {i} must hold its once-only value"
            );
            let writes = write_counts[i].load(Ordering::Relaxed);
            if pre[i] {
                assert_eq!(
                    writes, 0,
                    "marker {i} was set before the crash; recovery must not rewrite it"
                );
            } else {
                assert_eq!(
                    writes, 1,
                    "marker {i} must be written exactly once during recovery"
                );
                recovered += 1;
            }
        }
        rt.mark_clean().expect("record clean shutdown");
        println!(
            "exactly-once verified: {pre_count} markers from the killed run + {recovered} from \
             recovery = {TASKS}, none written twice"
        );
    }

    fn wait_for_progress(path: &Path, markers: Region, worker: &mut std::process::Child) -> usize {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "child made no progress in 60s");
            if let Some(status) = worker.try_wait().expect("try_wait") {
                panic!("child exited ({status:?}) before it could be killed mid-run");
            }
            if let Ok(file) = std::fs::File::open(path) {
                let set = count_set_markers(&file, markers);
                if set >= KILL_AT {
                    return set;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
