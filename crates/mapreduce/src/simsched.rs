//! Discrete-event list scheduling of tasks onto parallel slots.
//!
//! This is the simulated clock behind every speedup table: given per-task
//! costs and a number of identical slots, tasks are assigned greedily to
//! the earliest-free slot (exactly what a work-queue of executors does),
//! and the makespan is the simulated parallel time.

/// Greedy list-schedule: each task (in order) goes to the currently
/// least-loaded slot. Returns the makespan (seconds).
///
/// With `slots == 1` this degenerates to the serial sum. An empty task
/// list has makespan 0.
///
/// # Panics
/// Panics if `slots == 0` or any cost is negative/non-finite.
pub fn makespan(costs: &[f64], slots: usize) -> f64 {
    makespan_detailed(costs, slots).makespan
}

/// Full scheduling result: makespan plus per-slot busy times and the
/// slot assignment, for inspection and load-balance assertions.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Total simulated parallel time.
    pub makespan: f64,
    /// Busy time accumulated per slot.
    pub slot_busy: Vec<f64>,
    /// Slot index each task was assigned to.
    pub assignment: Vec<usize>,
}

/// Like [`makespan`] but returns the whole [`Schedule`].
///
/// # Panics
/// Panics if `slots == 0` or any cost is negative/non-finite.
pub fn makespan_detailed(costs: &[f64], slots: usize) -> Schedule {
    assert!(slots > 0, "need at least one slot");
    let mut slot_busy = vec![0f64; slots];
    let mut assignment = Vec::with_capacity(costs.len());
    for &c in costs {
        assert!(
            c.is_finite() && c >= 0.0,
            "task costs must be finite and non-negative, got {c}"
        );
        // Earliest-free slot; ties broken by lowest index (deterministic).
        let (best, _) = slot_busy
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            // seaice-lint: allow(panic-in-library) reason="the entry assert (slots > 0) guarantees slot_busy is non-empty, so min_by is always Some"
            .expect("slots > 0");
        slot_busy[best] += c;
        assignment.push(best);
    }
    Schedule {
        makespan: slot_busy.iter().copied().fold(0.0, f64::max),
        slot_busy,
        assignment,
    }
}

/// Amdahl-style host CPU model used to simulate single-machine thread
/// scaling (the paper's Table I ran on a 4-core/8-thread workstation).
#[derive(Clone, Copy, Debug)]
pub struct HostModel {
    /// Physical cores.
    pub physical_cores: usize,
    /// Logical (SMT) threads.
    pub logical_threads: usize,
    /// Throughput each extra SMT thread adds, as a fraction of a physical
    /// core (hyper-threads share execution units).
    pub smt_efficiency: f64,
    /// Serial (non-parallelizable) fraction of the workload: process
    /// start-up, dispatch, result assembly.
    pub serial_fraction: f64,
}

impl HostModel {
    /// The paper's Table I workstation: 2 GHz quad-core i5 with
    /// hyper-threading. `smt_efficiency` and `serial_fraction` are fitted
    /// to the published speedups (4.5× at 8 processes, 3.7× at 4).
    pub fn paper_i5() -> Self {
        Self {
            physical_cores: 4,
            logical_threads: 8,
            smt_efficiency: 0.24,
            serial_fraction: 0.027,
        }
    }

    /// Effective parallel capacity available to `workers` processes.
    pub fn effective_parallelism(&self, workers: usize) -> f64 {
        let phys = workers.min(self.physical_cores) as f64;
        let smt = workers
            .min(self.logical_threads)
            .saturating_sub(self.physical_cores) as f64;
        phys + smt * self.smt_efficiency
    }

    /// Simulated parallel time for a workload that takes `serial_time`
    /// seconds sequentially, run with `workers` processes.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn parallel_time(&self, serial_time: f64, workers: usize) -> f64 {
        assert!(workers > 0, "need at least one worker");
        let p = self.effective_parallelism(workers).max(1.0);
        serial_time * (self.serial_fraction + (1.0 - self.serial_fraction) / p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_slot_is_serial_sum() {
        let costs = [1.0, 2.0, 3.0];
        assert!((makespan(&costs, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tasks_zero_makespan() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn uniform_tasks_divide_evenly() {
        let costs = vec![1.0; 16];
        assert!((makespan(&costs, 4) - 4.0).abs() < 1e-12);
        assert!((makespan(&costs, 16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_never_below_critical_path_or_mean() {
        let costs = [5.0, 1.0, 1.0, 1.0];
        let m = makespan(&costs, 4);
        assert!((m - 5.0).abs() < 1e-12, "longest task bounds the makespan");
    }

    #[test]
    fn more_slots_never_slower() {
        let costs: Vec<f64> = (1..40).map(|i| (i % 7) as f64 + 0.5).collect();
        let mut prev = f64::INFINITY;
        for slots in 1..=8 {
            let m = makespan(&costs, slots);
            assert!(m <= prev + 1e-12, "slots {slots} slower: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn schedule_assignment_is_consistent() {
        let costs = [2.0, 2.0, 2.0, 2.0];
        let s = makespan_detailed(&costs, 2);
        assert_eq!(s.assignment.len(), 4);
        // Round-robin-ish under equal loads: both slots get two tasks.
        assert_eq!(s.assignment.iter().filter(|&&a| a == 0).count(), 2);
        let total: f64 = s.slot_busy.iter().sum();
        assert!((total - 8.0).abs() < 1e-12);
        assert_eq!(s.makespan, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        makespan(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_cost_panics() {
        makespan(&[-1.0], 1);
    }

    #[test]
    fn host_model_matches_paper_speedups() {
        let host = HostModel::paper_i5();
        let t1 = host.parallel_time(17.40, 1);
        assert!((t1 - 17.40).abs() < 0.2);
        for (workers, expected) in [(2usize, 2.0f64), (4, 3.7), (6, 4.2), (8, 4.5)] {
            let speedup = t1 / host.parallel_time(17.40, workers);
            assert!(
                (speedup - expected).abs() / expected < 0.08,
                "workers {workers}: simulated {speedup:.2} vs paper {expected}"
            );
        }
    }

    #[test]
    fn effective_parallelism_saturates() {
        let host = HostModel::paper_i5();
        assert_eq!(host.effective_parallelism(1), 1.0);
        assert_eq!(host.effective_parallelism(4), 4.0);
        let e8 = host.effective_parallelism(8);
        let e16 = host.effective_parallelism(16);
        assert!(e8 > 4.0 && e8 < 5.0);
        assert_eq!(e8, e16, "beyond logical threads adds nothing");
    }
}
