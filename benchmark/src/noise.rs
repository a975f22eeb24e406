//! What the benchmark does about a noisy host, and the noise record every
//! result carries.
//!
//! Two things are done: the process is pinned to one CPU before anything
//! runs ([`pin_to_one_cpu`]), and every timed interval is bracketed by
//! readings of a fixed reference kernel ([`Yardstick`]) that say how fast
//! the host was just then. The record holds how many cores the host offers,
//! how loaded it was, the yardstick's readings and, per timed phase, how
//! long the driving thread was on a CPU versus runnable-but-waiting for one.

use std::time::Instant;

/// Run-queue wait above this share of a phase's wall time draws a warning
/// (never a failure: the sandbox is shared).
pub const WAIT_WARN_SHARE: f64 = 0.02;

/// Host facts sampled once, when a run starts.
#[derive(Clone, Debug)]
pub struct Host {
    /// Cores the host offers, counted before the process is pinned.
    pub available_parallelism: usize,
    /// The CPU [`pin_to_one_cpu`] chose; `None` where it could not pin.
    pub pinned_cpu: Option<usize>,
    /// 1-, 5- and 15-minute load averages (zeros where `/proc` has none).
    pub loadavg: [f64; 3],
}

impl Host {
    /// `cores` and `pinned_cpu` are taken once per process, before and by
    /// [`pin_to_one_cpu`]; the load averages are read now.
    pub fn sample(cores: usize, pinned_cpu: Option<usize>) -> Self {
        let mut loadavg = [0.0; 3];
        if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, tok) in loadavg.iter_mut().zip(text.split_whitespace()) {
                *slot = tok.parse().unwrap_or(0.0);
            }
        }
        Host {
            available_parallelism: cores,
            pinned_cpu,
            loadavg,
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restricts this thread, and every thread it spawns from here on, to the
/// highest-numbered CPU it may run on, and returns that CPU. Call it before
/// the first thread is spawned.
///
/// The sandbox's two cores are not two cores' worth of steady capacity: in
/// the acceptance driver's runs, exactly the workloads that kept two threads
/// busy spread past their bound, and the single-threaded ones did not. On
/// one CPU `available_parallelism()` is 1, so the library's data-parallel
/// loops run inline and every workload keeps one thread busy; whatever else
/// runs in the sandbox has the other CPU to itself. The highest CPU, because
/// interrupts and housekeeping gather on CPU 0.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: affinity::CpuSet = [0; 16];
    let size = std::mem::size_of::<affinity::CpuSet>();
    // SAFETY: `set` is a live, writable `cpu_set_t` of `size` bytes, which
    // is all `sched_getaffinity` requires; pid 0 is the calling thread.
    if unsafe { affinity::sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let (word, bits) = set.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: affinity::CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live `cpu_set_t` of `size` bytes that
    // `sched_setaffinity` only reads; pid 0 is the calling thread.
    (unsafe { affinity::sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The yardstick's reading on the host this benchmark was written on, with
/// nothing contending: 1 MiB through [`Yardstick::pass`]. It only fixes the
/// scale of [`Yardstick::host_speed`] (1.0 = that host, undisturbed), so
/// that adjusted seconds read like that host's seconds; parent and change
/// are divided by the same number.
pub const YARDSTICK_REF_S: f64 = 2.2e-3;

const YARDSTICK_BYTES: usize = 1 << 20;
const YARDSTICK_PASSES: usize = 4;

/// A fixed reference kernel, owned by the benchmark, that measures how fast
/// the host is at this moment: a 3-tap rank filter over 1 MiB of bytes, the
/// kind of dense, vectorised inner loop the library's image and matrix code
/// is made of. When a neighbour of this virtual machine takes the other half
/// of the physical core, such loops slow down by half for seconds to minutes
/// (a dependent scalar chain hardly notices), and this kernel slows down
/// with them; a timed rep divided by the readings around it is what the rep
/// would have taken on the undisturbed host. See README.md, "Noise".
pub struct Yardstick {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Yardstick {
    pub fn new() -> Self {
        let src = (0..YARDSTICK_BYTES as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut y = Yardstick {
            src,
            dst: vec![0; YARDSTICK_BYTES],
        };
        y.pass();
        y
    }

    /// Median of three over every byte's neighbourhood. Indexed accesses on
    /// purpose: this is the form that was measured against the workloads,
    /// and the compiler keeps it a scalar loop of compares and selects.
    fn pass(&mut self) {
        let src = std::hint::black_box(&self.src);
        for k in 1..src.len() - 1 {
            let (x, y, z) = (src[k - 1], src[k], src[k + 1]);
            self.dst[k] = x.min(y).max(x.max(y).min(z));
        }
        std::hint::black_box(&self.dst);
    }

    /// Seconds one pass takes right now: the median of a few, so that one
    /// interrupted pass does not count.
    pub fn read(&mut self) -> f64 {
        let secs: Vec<f64> = (0..YARDSTICK_PASSES)
            .map(|_| {
                let t = Instant::now();
                self.pass();
                t.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&secs)
    }

    /// The host's speed over an interval bracketed by two readings, as a
    /// share of the reference host's: under 1 while the host is slowed down.
    pub fn host_speed(before: f64, after: f64) -> f64 {
        YARDSTICK_REF_S / ((before + after) / 2.0)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread from
/// `/proc/thread-self/schedstat`; `None` off Linux.
fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = text.split_whitespace().map(|t| t.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// Live threads of this process right now (`Threads:` in
/// `/proc/self/status`); 0 off Linux.
pub fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Scheduling facts of one timed phase, measured on the driving thread.
#[derive(Clone, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub wall_s: f64,
    pub on_cpu_s: f64,
    pub runq_wait_s: f64,
    /// Most threads seen alive at a rep boundary.
    pub threads_live_max: usize,
}

impl Phase {
    pub fn wait_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.runq_wait_s / self.wall_s
        } else {
            0.0
        }
    }

    pub fn noisy(&self) -> bool {
        self.wait_share() > WAIT_WARN_SHARE
    }
}

/// Brackets a phase: create before, [`finish`](PhaseTimer::finish) after.
pub struct PhaseTimer {
    name: &'static str,
    start: Instant,
    sched: Option<(u64, u64)>,
    threads: usize,
}

impl PhaseTimer {
    pub fn start(name: &'static str) -> Self {
        PhaseTimer {
            name,
            start: Instant::now(),
            sched: schedstat(),
            threads: live_threads(),
        }
    }

    /// Call at rep boundaries to keep the live-thread high-water mark.
    pub fn observe_threads(&mut self) {
        self.threads = self.threads.max(live_threads());
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn finish(mut self) -> Phase {
        self.observe_threads();
        let wall_s = self.start.elapsed().as_secs_f64();
        let (on_cpu_s, runq_wait_s) = match (self.sched, schedstat()) {
            (Some((c0, w0)), Some((c1, w1))) => (
                c1.saturating_sub(c0) as f64 / 1e9,
                w1.saturating_sub(w0) as f64 / 1e9,
            ),
            _ => (0.0, 0.0),
        };
        Phase {
            name: self.name,
            wall_s,
            on_cpu_s,
            runq_wait_s,
            threads_live_max: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_phase_accounts_wall_time() {
        let mut t = PhaseTimer::start("spin");
        let s = Instant::now();
        while s.elapsed().as_millis() < 20 {
            std::hint::black_box(0);
        }
        t.observe_threads();
        let p = t.finish();
        assert!(p.wall_s >= 0.02);
        assert!(p.wait_share() >= 0.0);
        assert!(p.threads_live_max >= 1 || cfg!(not(target_os = "linux")));
        assert!(nproc() >= 1);
    }

    #[test]
    fn the_yardstick_reads_a_positive_time_and_scales_host_speed() {
        let mut y = Yardstick::new();
        assert!(y.read() > 0.0);
        // The filter is a median of three.
        assert_eq!(y.dst[1..4], {
            let m = |k: usize| {
                let mut w = [y.src[k - 1], y.src[k], y.src[k + 1]];
                w.sort_unstable();
                w[1]
            };
            [m(1), m(2), m(3)]
        });
        assert_eq!(Yardstick::host_speed(YARDSTICK_REF_S, YARDSTICK_REF_S), 1.0);
        assert_eq!(
            Yardstick::host_speed(YARDSTICK_REF_S * 2.0, YARDSTICK_REF_S * 2.0),
            0.5
        );
    }

    #[test]
    fn wait_above_two_percent_is_flagged() {
        let p = Phase {
            name: "x",
            wall_s: 1.0,
            on_cpu_s: 0.9,
            runq_wait_s: 0.03,
            threads_live_max: 1,
        };
        assert!(p.noisy());
        let q = Phase {
            runq_wait_s: 0.01,
            ..p
        };
        assert!(!q.noisy());
    }
}
