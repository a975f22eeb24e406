//! The distributed-collection API: load → lazy map (UDF) → reduce/collect,
//! mirroring the PySpark dataframe workflow of §III-B.

use crate::cluster::{Cluster, ClusterSpec, FtReport, JobError, RunPolicy};
use crate::costmodel::CostModel;
use seaice_faults::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

/// Timing of one job stage: the simulated cluster clock (what Table II
/// reports) and the measured host wall time (for sanity checks).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageReport {
    /// Simulated cluster time in seconds.
    pub simulated_secs: f64,
    /// Measured host wall-clock seconds.
    pub measured_secs: f64,
    /// Number of tasks executed (0 for lazy stages).
    pub tasks: usize,
}

/// Timing of a full load → map → reduce job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobReport {
    /// Data-loading stage.
    pub load: StageReport,
    /// Map-registration stage (lazy, near-constant).
    pub map: StageReport,
    /// Reduce/collect stage (where execution happens).
    pub reduce: StageReport,
}

/// A driver session: virtual cluster plus cost model (the `SparkSession`
/// analog).
pub struct Session {
    cluster: Cluster,
    cost: CostModel,
}

impl Session {
    /// Starts a session on a virtual cluster.
    pub fn new(spec: ClusterSpec, cost: CostModel) -> Self {
        Self {
            cluster: Cluster::start(spec),
            cost,
        }
    }

    /// Cluster topology.
    pub fn spec(&self) -> ClusterSpec {
        self.cluster.spec()
    }

    /// Loads items into a distributed dataframe. `bytes_per_item` sizes
    /// the simulated object-store transfer (e.g. `256·256·3` for an RGB
    /// tile).
    pub fn read<T: Send + 'static>(
        &self,
        items: Vec<T>,
        bytes_per_item: f64,
    ) -> (DataFrame<T>, StageReport) {
        // seaice-lint: allow(wallclock-in-deterministic-path) reason="measured wall time is the StageReport value being reported (the paper's timing tables); results themselves stay in task-index order"
        let t0 = Instant::now();
        let n = items.len();
        // Local materialization is the measured part; the simulated part
        // is the cluster-wide fetch from the object store.
        let df = DataFrame {
            items,
            bytes_per_item,
        };
        let report = StageReport {
            simulated_secs: self.cost.load_time(&self.spec(), bytes_per_item * n as f64),
            measured_secs: t0.elapsed().as_secs_f64(),
            tasks: n,
        };
        (df, report)
    }
}

/// A materialized distributed collection (post-load, pre-transformation).
pub struct DataFrame<T> {
    items: Vec<T>,
    bytes_per_item: f64,
}

impl<T: Send + 'static> DataFrame<T> {
    /// Registers a UDF as a lazy map transformation (PySpark semantics:
    /// nothing executes until an action). Returns the lazy frame and the
    /// map-stage report — near-constant driver time, like the paper's
    /// "Map Time" column.
    pub fn map<U, F>(self, session: &Session, udf: F) -> (LazyFrame<T, U>, StageReport)
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        // seaice-lint: allow(wallclock-in-deterministic-path) reason="measured wall time is the StageReport value being reported (the paper's timing tables); results themselves stay in task-index order"
        let t0 = Instant::now();
        let frame = LazyFrame {
            items: self.items,
            bytes_per_item: self.bytes_per_item,
            udf: Arc::new(udf),
        };
        let report = StageReport {
            simulated_secs: session.cost.map_time(),
            measured_secs: t0.elapsed().as_secs_f64(),
            tasks: 0,
        };
        (frame, report)
    }
}

/// A lazily transformed collection: source items plus the composed UDF.
pub struct LazyFrame<T, U> {
    items: Vec<T>,
    bytes_per_item: f64,
    udf: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Send + 'static, U: Send + 'static> LazyFrame<T, U> {
    /// Executes the chain on the cluster and collects all results at the
    /// driver (the action that does the real work — the paper's "Reduce"
    /// stage). `result_bytes_per_item` sizes the simulated collect
    /// transfer.
    pub fn collect(self, session: &Session, result_bytes_per_item: f64) -> (Vec<U>, StageReport) {
        // seaice-lint: allow(wallclock-in-deterministic-path) reason="measured wall time is the StageReport value being reported (the paper's timing tables); results themselves stay in task-index order"
        let t0 = Instant::now();
        let n = self.items.len();
        let udf = self.udf;
        let results = session.cluster.run_tasks(self.items, move |item| udf(item));
        let measured = t0.elapsed().as_secs_f64();
        let costs: Vec<f64> = results.iter().map(|(_, secs)| *secs).collect();
        let simulated =
            session
                .cost
                .reduce_time(&session.spec(), &costs, result_bytes_per_item * n as f64);
        (
            results.into_iter().map(|(v, _)| v).collect(),
            StageReport {
                simulated_secs: simulated,
                measured_secs: measured,
                tasks: n,
            },
        )
    }

    /// Fault-tolerant [`collect`](LazyFrame::collect): failed tasks are
    /// retried per `policy`, repeatedly failing executors blacklisted,
    /// and stragglers speculatively re-executed. The stage report's
    /// simulated clock charges **every** attempt — retries and
    /// speculative duplicates included — so Table II-style numbers stay
    /// honest about what the cluster burned. `faults` is the chaos hook
    /// (pass `FaultPlan::disabled()` outside tests).
    ///
    /// # Errors
    /// [`JobError`] when some task exhausts its attempt budget.
    pub fn collect_ft(
        self,
        session: &Session,
        result_bytes_per_item: f64,
        policy: RunPolicy,
        faults: Arc<FaultPlan>,
    ) -> Result<(Vec<U>, StageReport, FtReport), JobError>
    where
        T: Clone + Sync,
    {
        // seaice-lint: allow(wallclock-in-deterministic-path) reason="measured wall time is the StageReport value being reported (the paper's timing tables); results themselves stay in task-index order"
        let t0 = Instant::now();
        let n = self.items.len();
        let udf = self.udf;
        let (results, ft) =
            session
                .cluster
                .run_tasks_ft(self.items, move |item| udf(item), policy, faults)?;
        let measured = t0.elapsed().as_secs_f64();
        let simulated = session.cost.reduce_time(
            &session.spec(),
            &ft.attempt_costs,
            result_bytes_per_item * n as f64,
        );
        Ok((
            results.into_iter().map(|(v, _)| v).collect(),
            StageReport {
                simulated_secs: simulated,
                measured_secs: measured,
                tasks: n,
            },
            ft,
        ))
    }

    /// Executes the chain and folds results pairwise with `merge`
    /// (associative). Only the merged value crosses the simulated driver
    /// link.
    pub fn reduce<F>(self, session: &Session, merge: F) -> (Option<U>, StageReport)
    where
        F: Fn(U, U) -> U,
    {
        let bytes = self.bytes_per_item;
        let (values, mut report) = self.collect(session, 0.0);
        // The merged result is one item's worth of driver traffic.
        report.simulated_secs += bytes / session.cost.collect_bytes_per_sec;
        (values.into_iter().reduce(merge), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(e: usize, c: usize) -> Session {
        Session::new(ClusterSpec::new(e, c).unwrap(), CostModel::gcd_n2())
    }

    #[test]
    fn map_reduce_equals_sequential_fold() {
        let s = session(2, 2);
        let data: Vec<i64> = (1..=100).collect();
        let (df, _) = s.read(data.clone(), 8.0);
        let (lazy, _) = df.map(&s, |x| x * x);
        let (sum, _) = lazy.reduce(&s, |a, b| a + b);
        let expected: i64 = data.iter().map(|x| x * x).sum();
        assert_eq!(sum, Some(expected));
    }

    #[test]
    fn collect_preserves_order() {
        let s = session(2, 2);
        let (df, _) = s.read((0..40).collect::<Vec<i32>>(), 4.0);
        let (lazy, _) = df.map(&s, |x| x + 1);
        let (out, _) = lazy.collect(&s, 4.0);
        assert_eq!(out, (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn map_stage_is_lazy_and_cheap() {
        let s = session(4, 4);
        let (df, _) = s.read(vec![0u8; 1000], 1.0);
        let before = Instant::now();
        let (_lazy, map_report) = df.map(&s, |x: u8| {
            // An expensive UDF that must NOT run at map time.
            std::thread::sleep(std::time::Duration::from_millis(50));
            x
        });
        assert!(before.elapsed().as_secs_f64() < 1.0, "map executed eagerly");
        assert_eq!(map_report.tasks, 0);
        assert!((map_report.simulated_secs - 0.3).abs() < 1e-9);
    }

    #[test]
    fn load_report_scales_with_cluster() {
        let bytes = 256.0 * 256.0 * 3.0;
        let small = session(1, 1);
        let big = session(4, 4);
        let (_, r1) = small.read(vec![0u8; 4224], bytes);
        let (_, r16) = big.read(vec![0u8; 4224], bytes);
        let speedup = r1.simulated_secs / r16.simulated_secs;
        assert!(
            (8.0..=12.0).contains(&speedup),
            "load speedup at 4x4: {speedup:.2} (paper: 9.0)"
        );
    }

    #[test]
    fn reduce_report_counts_tasks_and_scales() {
        let s1 = session(1, 1);
        let s16 = session(4, 4);
        let work = |x: u64| -> u64 {
            // Deterministic spin so per-task cost is measurable.
            let mut acc = x;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let run = |s: &Session| {
            let (df, _) = s.read((0..256u64).collect::<Vec<_>>(), 8.0);
            let (lazy, _) = df.map(s, work);
            let (_, report) = lazy.collect(s, 8.0);
            report
        };
        let r1 = run(&s1);
        let r16 = run(&s16);
        assert_eq!(r1.tasks, 256);
        let speedup = r1.simulated_secs / r16.simulated_secs;
        assert!(
            speedup > 4.0,
            "simulated reduce speedup at 16 slots: {speedup:.2}"
        );
    }

    #[test]
    fn collect_ft_matches_collect_and_charges_retries() {
        use crate::cluster::RunPolicy;
        use seaice_faults::{mix, FaultAction, FaultPlan};

        let clean = {
            let s = session(2, 2);
            let (df, _) = s.read((0..30).collect::<Vec<i64>>(), 8.0);
            let (lazy, _) = df.map(&s, |x| x * 7);
            lazy.collect(&s, 8.0).0
        };
        let s = session(2, 2);
        let (df, _) = s.read((0..30).collect::<Vec<i64>>(), 8.0);
        let (lazy, _) = df.map(&s, |x| x * 7);
        // First attempts of tasks 4 and 9 fail. Retries only: straggler
        // speculation would add wall-clock-dependent attempts.
        let plan = FaultPlan::seeded(11).fail_keys(
            "mapreduce.task",
            &[mix(4, 0), mix(9, 0)],
            FaultAction::Error,
        );
        let policy = RunPolicy {
            speculation: None,
            ..RunPolicy::resilient()
        };
        let (out, stage, ft) = lazy.collect_ft(&s, 8.0, policy, Arc::new(plan)).unwrap();
        assert_eq!(out, clean, "faulted run must still produce clean results");
        assert_eq!(ft.retries, 2);
        assert_eq!(ft.speculative, 0);
        assert_eq!(ft.attempt_costs.len(), 32, "all attempts are charged");
        assert!(stage.simulated_secs > 0.0);
    }

    #[test]
    fn empty_dataframe_reduce_is_none() {
        let s = session(1, 1);
        let (df, _) = s.read(Vec::<i32>::new(), 4.0);
        let (lazy, _) = df.map(&s, |x| x);
        let (out, report) = lazy.reduce(&s, |a, b| a + b);
        assert_eq!(out, None);
        assert_eq!(report.tasks, 0);
    }
}
