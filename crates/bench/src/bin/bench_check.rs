//! Bench-regression gate: compares the `BENCH_*.json` reports of the
//! current run against the checked-in baseline.
//!
//! ```text
//! cargo run -p ppm-bench --bin bench_check -- \
//!     --dir=bench_out --baseline=bench/baseline.json [--threshold=1.5] [--update]
//! ```
//!
//! The baseline is itself a [`ppm_bench::BenchReport`]-formatted file
//! whose metric keys are `"<experiment>.<metric>"`. Baselined metrics
//! come in two classes:
//!
//! * **ceilings** — lower-is-better costs (times, overhead factors, work
//!   ratios): the gate fails when `current > threshold * baseline`;
//! * **floors** — coverage counts ([`FLOOR_METRICS`]: trials run, steals
//!   observed), where more means the run exercised more: the gate fails
//!   when `current < baseline`, and each baseline is the lowest value
//!   seen over repeated runs.
//!
//! The ceiling threshold is generous
//! (default 1.5x) and the checked-in baselines themselves carry slack
//! over measured values, so the gate catches real regressions (3x+)
//! rather than CI-runner noise. A baselined metric missing from the
//! current run also fails — it means an experiment stopped emitting.
//!
//! `--update` rewrites the baseline from the current reports (ceilings
//! times the slack factor, floors as measured), for refreshing after an
//! intentional change; lower each floor by hand to the minimum of
//! repeated runs. The
//! scrape-embedded `obs.*` series are excluded — they are run-to-run
//! nondeterministic observability snapshots, not benchmark results.
//!
//! `--trend` prints a GitHub-flavored markdown table of current-vs-
//! baseline deltas instead of gating — CI appends it to the job summary
//! (`>> "$GITHUB_STEP_SUMMARY"`) so every run shows where each metric
//! sits inside its regression allowance. Trend mode always exits 0.

use std::path::PathBuf;
use std::process::exit;

use ppm_bench::BenchReport;

/// Slack multiplied into measured values when `--update` writes a new
/// baseline, so freshly recorded baselines do not sit at the noise edge.
const UPDATE_SLACK: f64 = 2.0;

/// Slack for wall-clock metrics (`*_ms` / `*_us`): millisecond-scale
/// timings on shared CI runners routinely vary several-fold with host
/// load, where the model-cost metrics (transfer counts and their ratios)
/// are deterministic and can be held to [`UPDATE_SLACK`].
const WALL_SLACK: f64 = 10.0;

/// Coverage counts, gated as floors (see the module docs).
const FLOOR_METRICS: &[&str] = &[
    "exp_fig3_correctness.trials",
    "exp_fig4_transitions.observed_steals",
];

fn is_floor(key: &str) -> bool {
    FLOOR_METRICS.contains(&key)
}

/// Picks the `--update` slack for a metric by its unit suffix. One
/// exception: the steal-backoff p99 is produced by a deterministic
/// policy probe and quantized to power-of-two histogram buckets — it is
/// exactly reproducible despite its wall-clock unit, so it stays tight.
fn update_slack(key: &str) -> f64 {
    if is_floor(key) {
        1.0
    } else if key.ends_with("steal_backoff_p99_us") {
        UPDATE_SLACK
    } else if key.ends_with("_ms") || key.ends_with("_us") {
        WALL_SLACK
    } else {
        UPDATE_SLACK
    }
}

struct Args {
    dir: PathBuf,
    baseline: PathBuf,
    threshold: f64,
    update: bool,
    trend: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: PathBuf::from("."),
        baseline: PathBuf::from("bench/baseline.json"),
        threshold: 1.5,
        update: false,
        trend: false,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--dir=") {
            args.dir = PathBuf::from(v);
        } else if let Some(v) = arg.strip_prefix("--baseline=") {
            args.baseline = PathBuf::from(v);
        } else if let Some(v) = arg.strip_prefix("--threshold=") {
            args.threshold = v.parse().unwrap_or_else(|_| {
                eprintln!("invalid --threshold value `{v}`");
                exit(2);
            });
        } else if arg == "--update" {
            args.update = true;
        } else if arg == "--trend" {
            args.trend = true;
        } else {
            eprintln!(
                "unknown argument `{arg}`; accepted: --dir= --baseline= --threshold= --update --trend"
            );
            exit(2);
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let reports = BenchReport::load_dir(&args.dir).unwrap_or_else(|e| {
        eprintln!("cannot read bench dir {}: {e}", args.dir.display());
        exit(2);
    });
    if reports.is_empty() {
        eprintln!(
            "no BENCH_*.json reports under {} — did the experiments run with \
             PPM_BENCH_DIR set?",
            args.dir.display()
        );
        exit(2);
    }
    println!(
        "bench_check: {} report(s) under {}",
        reports.len(),
        args.dir.display()
    );

    if args.update {
        let mut baseline = BenchReport::new("baseline");
        baseline.note("threshold_hint", args.threshold);
        for rep in &reports {
            for (k, v) in &rep.metrics {
                // Scrape-embedded series (`obs.*`) are observability
                // snapshots riding along in the artifact, not benchmark
                // results: steal counts, per-proc work splits and
                // histogram buckets vary run to run under parallel
                // scheduling, so baselining them would make the gate
                // flaky. They stay in BENCH_*.json, just ungated.
                if k.starts_with("obs.") {
                    continue;
                }
                let key = format!("{}.{k}", rep.name);
                let slack = update_slack(&key);
                baseline.metric(key, v * slack);
            }
        }
        if let Some(parent) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&args.baseline, baseline.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", args.baseline.display());
            exit(2);
        });
        println!(
            "baseline rewritten from current reports (x{UPDATE_SLACK} slack, \
             x{WALL_SLACK} for wall-clock metrics, floors as measured): {}",
            args.baseline.display()
        );
        return;
    }

    let text = std::fs::read_to_string(&args.baseline).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {}: {e}", args.baseline.display());
        exit(2);
    });
    let baseline = BenchReport::parse(&text).unwrap_or_else(|| {
        eprintln!("baseline {} is not a bench report", args.baseline.display());
        exit(2);
    });

    let current = |key: &str| -> Option<f64> {
        let (exp, metric) = key.split_once('.')?;
        reports
            .iter()
            .find(|r| r.name == exp)
            .and_then(|r| r.metrics.get(metric).copied())
    };

    if args.trend {
        // Markdown for the CI job summary: where each baselined metric
        // sits relative to its allowance. For ceilings, negative deltas
        // are headroom and >0% is drift toward the gate (which fires at
        // +{(threshold-1)*100}% past the slack-padded baseline); floors
        // fire below 0%. Never fails — the gating run below is separate.
        println!("### Bench trend (gate: {}x baseline)\n", args.threshold);
        println!("| metric | current | baseline | delta |");
        println!("|:---|---:|---:|---:|");
        for (key, base) in &baseline.metrics {
            match current(key) {
                None => println!("| `{key}` | — | {base:.3} | missing |"),
                Some(cur) => {
                    let delta = if *base > 0.0 {
                        100.0 * (cur - base) / base
                    } else {
                        0.0
                    };
                    println!("| `{key}` | {cur:.3} | {base:.3} | {delta:+.1}% |");
                }
            }
        }
        let extra: usize = reports
            .iter()
            .map(|r| {
                r.metrics
                    .keys()
                    .filter(|k| !baseline.metrics.contains_key(&format!("{}.{k}", r.name)))
                    .count()
            })
            .sum();
        println!("\n{extra} unbaselined metric(s) also emitted (see BENCH_*.json artifacts).");
        return;
    }

    let mut failures = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>8}  verdict",
        "metric", "current", "baseline", "ratio"
    );
    for (key, base) in &baseline.metrics {
        match current(key) {
            None => {
                failures += 1;
                println!("{key:<44} {:>12} {base:>12.3} {:>8}  MISSING", "-", "-");
            }
            Some(cur) => {
                let ratio = if *base > 0.0 { cur / base } else { 0.0 };
                let ok = if is_floor(key) {
                    cur >= *base
                } else {
                    cur <= base * args.threshold
                };
                if !ok {
                    failures += 1;
                }
                println!(
                    "{key:<44} {cur:>12.3} {base:>12.3} {ratio:>7.2}x  {}",
                    match (ok, is_floor(key)) {
                        (true, _) => "ok",
                        (false, false) => "REGRESSION",
                        (false, true) => "BELOW FLOOR",
                    }
                );
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "\nbench_check FAILED: {failures} metric(s) regressed past {}x, fell below \
             their floor, or went missing",
            args.threshold
        );
        exit(1);
    }
    println!(
        "\nbench_check passed: all {} baselined metric(s) within {}x or above their floor",
        baseline.metrics.len(),
        args.threshold
    );
}
