//! Real-thread round executor: measures the cost of synchronization blocks.
//!
//! The paper's §III-C argues that generating safe mutations *inside* the
//! search loop cripples synchronized parallel algorithms: every round, all
//! threads wait for the slowest one, and with heavy-tailed per-thread work
//! the maximum dominates ("the naive system operates at about half the
//! efficiency of threads requiring no synchronization blocks").
//! Precomputing the pool removes the per-round dependence on the slowest
//! thread.
//!
//! [`ThreadPool::run_rounds`] executes the same per-(thread, round) work
//! closure under two regimes — [`SyncMode::Barrier`] (lock-step rounds) and
//! [`SyncMode::Free`] (no synchronization) — so the efficiency ratio can be
//! measured directly; the returned [`WorkResult`] also carries the barrier
//! stall. The `sync_stall` experiment binary regenerates the §III-C numbers
//! with this.

use crate::faults::FaultPlan;
use crate::profhook::{self, SimEvent};
use crossbeam::thread;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Whether threads synchronize at the end of every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Lock-step: a barrier at the end of each round (the regime of
    /// Standard/Slate with on-the-fly mutation generation).
    Barrier,
    /// No synchronization: each thread burns through its rounds
    /// independently (the regime enabled by precomputation).
    Free,
}

/// Outcome of a [`ThreadPool::run_rounds`] execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkResult {
    /// Wall-clock time for the whole execution.
    pub wall: Duration,
    /// Total work items executed (threads × rounds).
    pub items: u64,
    /// Sum of per-thread busy time (excludes barrier waits).
    pub busy: Duration,
    /// Aggregate barrier-wait time: the sum over rounds of `max_busy ×
    /// threads − total_busy` under [`SyncMode::Barrier`] (every thread
    /// waits for the round's slowest), zero under [`SyncMode::Free`].
    pub stall: Duration,
    /// The largest single round's contribution to [`WorkResult::stall`].
    pub worst_round_stall: Duration,
    /// (thread, round) pairs slowed by an injected straggler fault (always
    /// 0 without a fault plan — see [`ThreadPool::run_rounds_faulty`]).
    pub stragglers: u64,
}

impl WorkResult {
    /// Efficiency: busy time / (wall time × threads). 1.0 means no thread
    /// ever waited.
    pub fn efficiency(&self, threads: usize) -> f64 {
        let denom = self.wall.as_secs_f64() * threads as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        (self.busy.as_secs_f64() / denom).min(1.0)
    }
}

/// A fixed-size pool of real OS threads executing round-structured work.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    n_threads: usize,
}

impl ThreadPool {
    /// Pool of `n_threads` threads.
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0);
        Self { n_threads }
    }

    /// Thread count.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Execute `work(thread_id, round)` for every (thread, round) pair.
    ///
    /// Under [`SyncMode::Barrier`], round `r+1` starts only after *every*
    /// thread finishes round `r`; under [`SyncMode::Free`] each thread
    /// proceeds at its own pace.
    pub fn run_rounds<F>(&self, rounds: usize, mode: SyncMode, work: F) -> WorkResult
    where
        F: Fn(usize, usize) + Sync,
    {
        self.run_rounds_inner(rounds, mode, work, None)
    }

    /// [`run_rounds`](Self::run_rounds) under a fault plan: each (thread,
    /// round) pair consults [`FaultPlan::straggler_us`] and, when
    /// straggling, spins for the configured extra latency *inside* its busy
    /// window — modeling the slow-thread regime of §III-C (under
    /// [`SyncMode::Barrier`] every other thread absorbs the straggler's
    /// latency as stall). Straggler hits are counted in
    /// [`WorkResult::stragglers`].
    pub fn run_rounds_faulty<F>(
        &self,
        rounds: usize,
        mode: SyncMode,
        work: F,
        plan: &FaultPlan,
    ) -> WorkResult
    where
        F: Fn(usize, usize) + Sync,
    {
        self.run_rounds_inner(rounds, mode, work, Some(plan))
    }

    fn run_rounds_inner<F>(
        &self,
        rounds: usize,
        mode: SyncMode,
        work: F,
        plan: Option<&FaultPlan>,
    ) -> WorkResult
    where
        F: Fn(usize, usize) + Sync,
    {
        let n = self.n_threads;
        let barrier = Barrier::new(n);
        // One busy-time series per thread: the stall is computed from the
        // per-round spread after the pool joins.
        let per_thread: Mutex<Vec<Vec<Duration>>> = Mutex::new(vec![Vec::new(); n]);
        let stragglers = AtomicU64::new(0);
        let t0 = Instant::now();

        thread::scope(|s| {
            for tid in 0..n {
                let work = &work;
                let barrier = &barrier;
                let per_thread = &per_thread;
                let stragglers = &stragglers;
                s.spawn(move |_| {
                    let mut series = Vec::with_capacity(rounds);
                    for r in 0..rounds {
                        let w0 = Instant::now();
                        work(tid, r);
                        if let Some(p) = plan {
                            let extra = p.straggler_us(tid, r);
                            if extra > 0 {
                                spin_for_micros(extra);
                                stragglers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        series.push(w0.elapsed());
                        if mode == SyncMode::Barrier {
                            let wait_t0 = profhook::active().then(Instant::now);
                            barrier.wait();
                            if let Some(t0) = wait_t0 {
                                profhook::emit(
                                    SimEvent::RoundBarrier,
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                        }
                    }
                    per_thread.lock()[tid] = series;
                });
            }
        })
        .expect("worker thread panicked");
        let wall = t0.elapsed();

        let per_thread = per_thread.into_inner();
        let mut stall = Duration::ZERO;
        let mut worst_round_stall = Duration::ZERO;
        if mode == SyncMode::Barrier {
            for r in 0..rounds {
                let max_busy = per_thread.iter().map(|s| s[r]).max().unwrap_or_default();
                let total_busy: Duration = per_thread.iter().map(|s| s[r]).sum();
                let round_stall = max_busy * n as u32 - total_busy;
                stall += round_stall;
                worst_round_stall = worst_round_stall.max(round_stall);
            }
        }

        WorkResult {
            wall,
            items: (n * rounds) as u64,
            busy: per_thread.iter().flatten().sum(),
            stall,
            worst_round_stall,
            stragglers: stragglers.into_inner(),
        }
    }
}

/// Busy-wait for approximately `micros` microseconds (spin, not sleep — the
/// workloads being modeled are CPU-bound test-suite executions, and sleeping
/// would let the OS scheduler hide the stall being measured).
pub fn spin_for_micros(micros: u64) {
    let t0 = Instant::now();
    let target = Duration::from_micros(micros);
    while t0.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_all_items_in_both_modes() {
        for mode in [SyncMode::Barrier, SyncMode::Free] {
            let counter = AtomicU64::new(0);
            let pool = ThreadPool::new(4);
            let res = pool.run_rounds(10, mode, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 40);
            assert_eq!(res.items, 40);
        }
    }

    #[test]
    fn barrier_mode_is_lockstep() {
        // In barrier mode, no thread may be 2+ rounds ahead of another.
        let max_round = AtomicUsize::new(0);
        let min_seen_gap = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        pool.run_rounds(20, SyncMode::Barrier, |_, r| {
            let prev_max = max_round.fetch_max(r, Ordering::SeqCst).max(r);
            // Gap between this thread's round and the global max round.
            let gap = prev_max.saturating_sub(r);
            min_seen_gap.fetch_max(gap, Ordering::SeqCst);
        });
        assert!(
            min_seen_gap.load(Ordering::SeqCst) <= 1,
            "threads drifted more than one round apart under a barrier"
        );
    }

    #[test]
    fn skewed_work_hurts_barrier_efficiency_more() {
        // One slow thread per round: barrier mode's wall time tracks the
        // slow thread; free mode overlaps the slowness. The comparison is
        // only meaningful with real parallel hardware — on a single-core
        // (or busy) host both modes serialize and the measurement is noise,
        // so we only assert completion there.
        let pool = ThreadPool::new(4);
        let skewed = |tid: usize, r: usize| {
            // Thread (r % 4) is the slow one in round r.
            if tid == r % 4 {
                spin_for_micros(300);
            } else {
                spin_for_micros(30);
            }
        };
        let b = pool.run_rounds(30, SyncMode::Barrier, skewed);
        let f = pool.run_rounds(30, SyncMode::Free, skewed);
        assert_eq!(b.items, 120);
        assert_eq!(f.items, 120);
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if cores >= 4 {
            // Free mode should be meaningfully faster in wall time.
            assert!(
                f.wall.as_secs_f64() < b.wall.as_secs_f64(),
                "free {:?} !< barrier {:?}",
                f.wall,
                b.wall
            );
            assert!(f.efficiency(4) > b.efficiency(4));
        }
    }

    #[test]
    fn efficiency_bounded_by_one() {
        let pool = ThreadPool::new(2);
        let r = pool.run_rounds(5, SyncMode::Free, |_, _| spin_for_micros(50));
        let e = r.efficiency(2);
        assert!((0.0..=1.0).contains(&e), "efficiency {e}");
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn barrier_stall_is_bounded_by_idle_time() {
        let pool = ThreadPool::new(3);
        let res = pool.run_rounds(7, SyncMode::Barrier, |_, _| spin_for_micros(20));
        assert_eq!(res.items, 21);
        assert!(res.worst_round_stall <= res.stall);
        // Rounds are disjoint under a barrier, so the slowest threads' busy
        // times sum to at most the wall clock, and stall = threads × Σ max −
        // busy ≤ threads × wall − busy.
        assert!(res.stall + res.busy <= res.wall * 3);
    }

    #[test]
    fn single_thread_barrier_never_stalls() {
        // The only thread is the slowest one: max × 1 − total = 0.
        let res = ThreadPool::new(1).run_rounds(5, SyncMode::Barrier, |_, _| spin_for_micros(10));
        assert_eq!(res.stall, Duration::ZERO);
        assert_eq!(res.worst_round_stall, Duration::ZERO);
    }

    #[test]
    fn zero_rounds_report_nothing() {
        for mode in [SyncMode::Barrier, SyncMode::Free] {
            let res = ThreadPool::new(3).run_rounds_faulty(
                0,
                mode,
                |_, _| panic!("no round to run"),
                &straggling_plan(1.0),
            );
            assert_eq!((res.items, res.stragglers), (0, 0));
            assert_eq!(res.busy, Duration::ZERO);
            assert_eq!(res.stall, Duration::ZERO);
        }
    }

    #[test]
    fn free_mode_reports_zero_stall() {
        let pool = ThreadPool::new(2);
        let res = pool.run_rounds(4, SyncMode::Free, |_, _| spin_for_micros(10));
        assert_eq!(res.stall, Duration::ZERO);
        assert_eq!(res.worst_round_stall, Duration::ZERO);
    }

    fn straggling_plan(rate: f64) -> FaultPlan {
        use crate::faults::FaultConfig;
        FaultPlan::new(
            3,
            FaultConfig {
                straggler_rate: rate,
                straggler_extra_us: 100,
                ..FaultConfig::default()
            },
        )
    }

    #[test]
    fn stragglers_injected_and_reported() {
        let plan = straggling_plan(0.5);
        let expected = (0..2)
            .flat_map(|tid| (0..20).map(move |r| (tid, r)))
            .filter(|&(tid, r)| plan.straggler_us(tid, r) > 0)
            .count() as u64;
        assert!(expected > 0, "rate 0.5 over 40 draws should straggle");
        // Hits are the plan's pure function of (thread, round), whatever
        // the timing or the sync mode.
        let pool = ThreadPool::new(2);
        for mode in [SyncMode::Barrier, SyncMode::Free] {
            let res = pool.run_rounds_faulty(20, mode, |_, _| {}, &plan);
            assert_eq!(res.stragglers, expected, "{mode:?}");
        }
    }

    #[test]
    fn quiescent_plan_reports_no_stragglers() {
        let pool = ThreadPool::new(2);
        let res = pool.run_rounds_faulty(5, SyncMode::Barrier, |_, _| {}, &FaultPlan::quiescent());
        assert_eq!(res.stragglers, 0);
    }

    #[test]
    fn every_straggler_inflates_busy_time() {
        // The work closure is empty, so all busy time is injected latency.
        let pool = ThreadPool::new(2);
        let res = pool.run_rounds_faulty(5, SyncMode::Barrier, |_, _| {}, &straggling_plan(1.0));
        assert_eq!(res.stragglers, 10);
        assert!(
            res.busy >= Duration::from_micros(2 * 5 * 100),
            "busy {:?}",
            res.busy
        );
    }
}
