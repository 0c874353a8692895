//! Machine configuration: the `(M, B)` parameters, fault model, and
//! validation mode.

/// How aggressively the substrate checks the paper's correctness conditions
/// at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidateMode {
    /// No dynamic checking; fastest. Only `exp_abp_compare` runs in this
    /// mode, to time the non-fault-tolerant ABP baseline; `perfbench/`
    /// and every other experiment run [`ValidateMode::Strict`].
    Off,
    /// Record write-after-read conflicts and well-formedness violations in
    /// statistics, but do not panic. Useful for measuring how close a
    /// program is to conflict freedom.
    Record,
    /// Panic on the first write-after-read conflict or well-formedness
    /// violation. The entire test suite runs in this mode; a strict-mode
    /// pass is the dynamic analogue of the paper's Theorem 3.1 hypothesis.
    #[default]
    Strict,
}

/// The fault adversary's parameters.
///
/// The paper assumes the probability of faulting between two consecutive
/// persistent accesses is bounded by `f ≤ 1/2` and that faults are
/// independent. The injector reproduces exactly that: an independent
/// Bernoulli(`fault_prob`) trial at every costed access, per processor,
/// from a deterministic per-processor stream seeded by `seed`.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability `f` of a fault at each persistent-memory access.
    pub fault_prob: f64,
    /// Given that a fault occurs, the probability it is a *hard* fault
    /// (processor never restarts). `0.0` gives the soft-fault-only model.
    pub hard_fault_ratio: f64,
    /// Seed for the deterministic per-processor fault streams.
    pub seed: u64,
    /// Deterministically scheduled hard faults: processor `p` dies at its
    /// `n`-th persistent access. Used by the hard-fault experiments so that
    /// deaths are replayable and can be placed adversarially.
    pub scheduled_hard_faults: Vec<(usize, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// No faults at all (the faultless machine used to measure `W` and `D`).
    pub fn none() -> Self {
        FaultConfig {
            fault_prob: 0.0,
            hard_fault_ratio: 0.0,
            seed: 0,
            scheduled_hard_faults: Vec::new(),
        }
    }

    /// Soft faults only, with probability `f` per persistent access.
    pub fn soft(f: f64, seed: u64) -> Self {
        assert!((0.0..=0.5).contains(&f), "the model requires f <= 1/2");
        FaultConfig {
            fault_prob: f,
            hard_fault_ratio: 0.0,
            seed,
            scheduled_hard_faults: Vec::new(),
        }
    }

    /// Soft faults with probability `f`, of which a fraction `hard_ratio`
    /// are hard faults.
    pub fn mixed(f: f64, hard_ratio: f64, seed: u64) -> Self {
        assert!((0.0..=0.5).contains(&f), "the model requires f <= 1/2");
        assert!((0.0..=1.0).contains(&hard_ratio));
        FaultConfig {
            fault_prob: f,
            hard_fault_ratio: hard_ratio,
            seed,
            scheduled_hard_faults: Vec::new(),
        }
    }

    /// Adds a deterministic hard fault: processor `proc` dies at its
    /// `at_access`-th persistent-memory access.
    pub fn with_scheduled_hard_fault(mut self, proc: usize, at_access: u64) -> Self {
        self.scheduled_hard_faults.push((proc, at_access));
        self
    }
}

/// Full machine configuration for a Parallel-PM instance.
#[derive(Debug, Clone)]
pub struct PmConfig {
    /// Number of processors `P`.
    pub procs: usize,
    /// Persistent memory capacity `M_p` in words.
    pub persistent_words: usize,
    /// Ephemeral memory capacity `M` in words (per processor).
    pub ephemeral_words: usize,
    /// Block size `B` in words; every external transfer moves one block.
    pub block_size: usize,
    /// The fault adversary.
    pub fault: FaultConfig,
    /// Dynamic validation mode.
    pub validate: ValidateMode,
}

impl PmConfig {
    /// A small single-processor machine, convenient for unit tests:
    /// `M = 256`, `B = 8`, no faults, strict validation.
    pub fn small_single() -> Self {
        PmConfig {
            procs: 1,
            persistent_words: 1 << 16,
            ephemeral_words: 256,
            block_size: 8,
            fault: FaultConfig::none(),
            validate: ValidateMode::Strict,
        }
    }

    /// A machine with `procs` processors and `words` words of persistent
    /// memory, `M = 4096`, `B = 8`, no faults, strict validation.
    pub fn parallel(procs: usize, words: usize) -> Self {
        PmConfig {
            procs,
            persistent_words: words,
            ephemeral_words: 4096,
            block_size: 8,
            fault: FaultConfig::none(),
            validate: ValidateMode::Strict,
        }
    }

    /// Replaces the fault configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the validation mode.
    pub fn with_validate(mut self, mode: ValidateMode) -> Self {
        self.validate = mode;
        self
    }

    /// Replaces the block size.
    pub fn with_block_size(mut self, b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        self.block_size = b;
        self
    }

    /// Replaces the ephemeral memory size.
    pub fn with_ephemeral_words(mut self, m: usize) -> Self {
        self.ephemeral_words = m;
        self
    }

    /// The paper's constraint `f ≤ 1/(2C)` for maximum capsule work `C`:
    /// returns the largest fault probability this machine should be run at
    /// for a program with the given maximum capsule work.
    pub fn max_safe_fault_prob(max_capsule_work: u64) -> f64 {
        if max_capsule_work == 0 {
            0.5
        } else {
            0.5 / max_capsule_work as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validate_is_strict() {
        assert_eq!(ValidateMode::default(), ValidateMode::Strict);
    }

    #[test]
    fn fault_config_constructors() {
        let none = FaultConfig::none();
        assert_eq!(none.fault_prob, 0.0);
        let soft = FaultConfig::soft(0.1, 42);
        assert_eq!(soft.fault_prob, 0.1);
        assert_eq!(soft.hard_fault_ratio, 0.0);
        let mixed = FaultConfig::mixed(0.1, 0.5, 42);
        assert_eq!(mixed.hard_fault_ratio, 0.5);
    }

    #[test]
    #[should_panic(expected = "f <= 1/2")]
    fn fault_prob_above_half_rejected() {
        let _ = FaultConfig::soft(0.75, 0);
    }

    #[test]
    fn scheduled_hard_faults_accumulate() {
        let cfg = FaultConfig::none()
            .with_scheduled_hard_fault(0, 100)
            .with_scheduled_hard_fault(3, 7);
        assert_eq!(cfg.scheduled_hard_faults, vec![(0, 100), (3, 7)]);
    }

    #[test]
    fn max_safe_fault_prob_matches_paper_constraint() {
        // f <= 1/(2C)
        assert_eq!(PmConfig::max_safe_fault_prob(1), 0.5);
        assert_eq!(PmConfig::max_safe_fault_prob(10), 0.05);
        assert_eq!(PmConfig::max_safe_fault_prob(0), 0.5);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = PmConfig::small_single()
            .with_block_size(16)
            .with_ephemeral_words(512)
            .with_validate(ValidateMode::Off);
        assert_eq!(cfg.block_size, 16);
        assert_eq!(cfg.ephemeral_words, 512);
        assert_eq!(cfg.validate, ValidateMode::Off);
    }
}
