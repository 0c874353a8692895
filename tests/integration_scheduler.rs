//! Cross-crate integration: the fault-tolerant scheduler driving real
//! fork-join computations under randomized soft- and hard-fault
//! adversaries, with strict validation and Figure 4 transition checking.

use std::sync::Arc;

use ppm::core::dsl::{fork2, CapsuleSet, Step, K};
use ppm::core::{par_for, Machine, PComp};
use ppm::pm::{FaultConfig, PmConfig, Region};
use ppm::sched::{ProcOutcome, Runtime, SchedConfig, SessionReport, SimEvent, SimSched};

fn marker_tasks(r: Region, n: usize) -> PComp {
    par_for("mark", r, n, |r: &Region, i, ctx| ctx.pwrite(r.at(i), 1))
}

fn assert_all_marked(m: &Machine, r: Region, n: usize, tag: &str) {
    for i in 0..n {
        assert_eq!(
            m.mem().load(r.at(i)),
            1,
            "{tag}: task {i} must run exactly once"
        );
    }
}

/// Runs a registered computation on a fresh session over `m`.
fn run(m: Machine, comp: &PComp, cfg: SchedConfig) -> (Runtime, SessionReport) {
    let rt = Runtime::new(m, cfg);
    let rep = rt.run_or_recover(comp);
    (rt, rep)
}

/// An unbalanced recursive computation: a "spine" that forks a leaf at
/// every level — the worst case for steal distribution.
fn skewed(r: Region, n: usize) -> PComp {
    Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let leaf = set.define("leaf", |&(r, i): &(Region, usize), k, ctx| {
            ctx.pwrite(r.at(i), 1)?;
            Ok(Step::Jump(k))
        });
        let spine = set.declare::<(Region, usize, usize)>("spine");
        set.body(spine, move |&(r, i, n), k, ctx| {
            if i >= n {
                return Ok(Step::Jump(k));
            }
            fork2(ctx, (leaf, &(r, i)), (spine, &(r, i + 1, n)), k)
        });
        spine.setup(m, &(r, 0, n), K(finale)).0
    })
}

#[test]
fn balanced_fanout_with_transition_checking_across_proc_counts() {
    for procs in [1, 2, 3, 4, 8] {
        let m = Machine::new(PmConfig::parallel(procs, 1 << 21));
        let n = 96;
        let r = m.alloc_region(n);
        let mut cfg = SchedConfig::with_slots(1 << 11);
        cfg.check_transitions = true;
        let (rt, rep) = run(m, &marker_tasks(r, n), cfg);
        assert!(rep.completed(), "P={procs}");
        assert_all_marked(rt.machine(), r, n, &format!("P={procs}"));
    }
}

#[test]
fn skewed_spine_distributes_over_steals() {
    let m = Machine::new(PmConfig::parallel(4, 1 << 21));
    let n = 64;
    let r = m.alloc_region(n);
    let (rt, rep) = run(m, &skewed(r, n), SchedConfig::with_slots(1 << 11));
    assert!(rep.completed());
    assert_all_marked(rt.machine(), r, n, "skewed");
}

#[test]
fn randomized_soft_fault_storm() {
    // Many seeds, meaningful fault rate: every capsule type in the
    // scheduler gets restarted somewhere across this sweep.
    for seed in 0..12 {
        let m =
            Machine::new(PmConfig::parallel(4, 1 << 21).with_fault(FaultConfig::soft(0.03, seed)));
        let n = 40;
        let r = m.alloc_region(n);
        let mut cfg = SchedConfig::with_slots(1 << 11);
        cfg.check_transitions = true;
        let (rt, rep) = run(m, &marker_tasks(r, n), cfg);
        assert!(rep.completed(), "seed {seed}");
        assert!(rep.stats().soft_faults > 0, "seed {seed} must see faults");
        assert_all_marked(rt.machine(), r, n, &format!("seed {seed}"));
    }
}

#[test]
fn mixed_hard_and_soft_faults_random_placement() {
    // Probabilistic hard faults: up to P-1 processors may die anywhere,
    // including inside scheduler capsules. The run completes unless all
    // die; either way no task is lost or duplicated.
    let mut completed_with_deaths = 0;
    for seed in 0..16 {
        let m = Machine::new(
            PmConfig::parallel(4, 1 << 21).with_fault(FaultConfig::mixed(0.01, 0.02, seed)),
        );
        let n = 48;
        let r = m.alloc_region(n);
        let (rt, rep) = run(m, &marker_tasks(r, n), SchedConfig::with_slots(1 << 11));
        if rep.completed() {
            assert_all_marked(rt.machine(), r, n, &format!("seed {seed}"));
            if rep.dead_procs() > 0 {
                completed_with_deaths += 1;
            }
        } else {
            assert_eq!(rep.dead_procs(), 4, "seed {seed}: only all-dead may fail");
        }
    }
    assert!(
        completed_with_deaths > 0,
        "the sweep should exercise completion despite deaths"
    );
}

#[test]
fn adversarial_hard_fault_placements_on_root() {
    // Kill the root processor at many different points in its life: while
    // running user code, while pushing, while popping, while clearing.
    for at in [5u64, 12, 20, 35, 60, 90, 140, 200, 300] {
        let m = Machine::new(
            PmConfig::parallel(3, 1 << 21)
                .with_fault(FaultConfig::none().with_scheduled_hard_fault(0, at)),
        );
        let n = 32;
        let r = m.alloc_region(n);
        let (rt, rep) = run(m, &marker_tasks(r, n), SchedConfig::with_slots(1 << 11));
        assert!(rep.completed(), "death at access {at}");
        assert_eq!(rep.run_report().outcomes[0], ProcOutcome::Dead);
        assert_all_marked(rt.machine(), r, n, &format!("death@{at}"));
    }
}

#[test]
fn cascading_deaths_during_recovery() {
    // The first thief to adopt a dead processor's thread dies too; the
    // thread must be adopted again (thief-of-thief, Lemma A.9's chain).
    // Scripted on the deterministic simulator so the cascade happens on
    // every run: proc 0 dies mid-thread after forking, then procs 1 and 2
    // each die mid-thread right after adopting a dead processor's thread.
    let m = Machine::new(PmConfig::parallel(4, 1 << 21));
    let n = 48;
    let r = m.alloc_region(n);
    let comp = marker_tasks(r, n);
    let mut sim = SimSched::new_persistent(&m, &comp, &SchedConfig::with_slots(1 << 11));
    // Steps `p` alone until `pred` holds for one of its events.
    let step_until = |sim: &mut SimSched<'_>, p: usize, pred: &dyn Fn(&str, &str) -> bool| {
        let hit = (0..20_000).any(
            |_| matches!(sim.step(p), SimEvent::Ran { capsule, next, .. } if pred(&capsule, &next)),
        );
        assert!(
            hit,
            "p{p} never reached its crash point\n{}",
            sim.render_trace()
        );
    };
    // Proc 0 forks three subtrees, then dies holding its running thread.
    for _ in 0..3 {
        step_until(&mut sim, 0, &|c, _| c == "sched/pushBottom/commit");
    }
    sim.crash(0);
    for thief in [1, 2] {
        // The thief adopts a dead processor's running thread (a `local`
        // entry), forks once inside it, and dies.
        step_until(&mut sim, thief, &|c, next| {
            c == "sched/popTop/checkLocal" && !next.starts_with("sched/")
        });
        step_until(&mut sim, thief, &|c, _| c == "sched/pushBottom/commit");
        sim.crash(thief);
    }
    sim.run_to_completion(200_000);
    let rep = sim.finish();
    assert!(rep.completed);
    let dead = rep
        .outcomes
        .iter()
        .filter(|o| **o == Some(ProcOutcome::Dead))
        .count();
    assert_eq!(dead, 3);
    assert_all_marked(&m, r, n, "cascade");
}

#[test]
fn deep_sequential_chain_under_faults() {
    // A single thread of many capsules (no forks after the first): tests
    // the install/restart path rather than stealing.
    let m = Machine::new(PmConfig::parallel(2, 1 << 21).with_fault(FaultConfig::soft(0.02, 9)));
    let r = m.alloc_region(256);
    let chain: PComp = Arc::new(move |m: &Machine, finale| {
        let mut set = CapsuleSet::new(m);
        let link = set.define("link", |&(r, i): &(Region, usize), k, ctx| {
            let prev = if i == 0 { 0 } else { ctx.pread(r.at(i - 1))? };
            ctx.pwrite(r.at(i), prev + 1)?;
            Ok(Step::Jump(k))
        });
        (0..200)
            .rev()
            .fold(K(finale), |next, i| link.setup(m, &(r, i), next))
            .0
    });
    let (rt, rep) = run(m, &chain, SchedConfig::with_slots(1 << 11));
    assert!(rep.completed());
    assert_eq!(
        rt.machine().mem().load(r.at(199)),
        200,
        "each link applied exactly once"
    );
}

#[test]
fn work_term_grows_mildly_with_fault_rate() {
    // Theorem 6.2's work term: E[W_f] <= W / (1 - C f). With C ~ 8 and
    // f = 0.01, the factor is ~1.09. Measured at P = 1 so the total is
    // not polluted by idle processors' steal-loop polling (which scales
    // with wall-clock time, not with the computation's work — the P > 1
    // accounting of that term is ABP's steal-attempt bound, exercised by
    // the E4 experiment instead).
    let work = |f: f64, seed: u64| {
        let m = Machine::new(PmConfig::parallel(1, 1 << 21).with_fault(if f == 0.0 {
            FaultConfig::none()
        } else {
            FaultConfig::soft(f, seed)
        }));
        let n = 64;
        let r = m.alloc_region(n);
        let (_rt, rep) = run(m, &marker_tasks(r, n), SchedConfig::with_slots(1 << 11));
        assert!(rep.completed());
        rep.stats().total_work()
    };
    let w0 = work(0.0, 0);
    let wf: u64 = (0..5).map(|s| work(0.01, s)).sum::<u64>() / 5;
    assert!(
        (wf as f64) < 1.3 * w0 as f64,
        "E[W_f] = {wf} should be within ~1.1x of W = {w0}"
    );
}
