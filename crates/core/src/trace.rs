//! Run events: the deterministic half of the workspace's telemetry.
//!
//! Telemetry has two concepts. *Events* — this module — are deterministic,
//! ride the bit-identity path and are written as JSONL: no event carries a
//! wall-clock field, so two runs with the same seed emit byte-identical
//! traces. *Metrics* — span durations, counts and latency histograms — are
//! wall-clock, non-deterministic, and live in one registry,
//! [`crate::prof`]; nothing in this module reads a clock.
//!
//! Every driver in this workspace — [`crate::run::run_to_convergence`],
//! [`crate::regret::run_with_regret`], the `mwrepair` online phase, and the
//! experiment grid in `mwu-experiments` — has an `*_observed` entry point
//! taking an [`Observer`]. Drivers construct [`TraceEvent`]s only behind an
//! `observer.enabled()` check, and [`NullObserver::enabled`] is a constant
//! `false`, so after monomorphization the unobserved path compiles to the
//! pre-telemetry loop: no event construction, no `probabilities()` clones,
//! no entropy computation.
//!
//! Two sinks cover the common uses:
//!
//! * [`JsonlSink`] — one JSON event per line (byte-identity locked down by
//!   `tests/tests/telemetry.rs`). Each [`TraceEvent::Replicate`] header
//!   carries the replicate's derived `run_seed` and `max_iterations`, which
//!   is everything needed to re-run that replicate alone.
//! * [`ProgressSink`] — human-oriented stderr narration of grid progress,
//!   replacing the ad-hoc `eprintln!` calls the grid runner used to hold.
//!
//! [`Tee`] composes two observers (e.g. a trace file plus progress lines).

use crate::{CommStats, RunOutcome};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Shannon entropy (nats) of a probability vector; zero-mass entries
/// contribute nothing. The per-iteration "how undecided is the algorithm"
/// signal carried by [`IterationEvent`].
pub fn entropy(p: &[f64]) -> f64 {
    -p.iter()
        .filter(|&&pi| pi > 0.0)
        .map(|&pi| pi * pi.ln())
        .sum::<f64>()
}

/// Header of one observed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStartEvent {
    /// Variant name ("standard" / "slate" / "distributed").
    pub algorithm: &'static str,
    /// Number of arms.
    pub num_arms: usize,
    /// Parallel agents per iteration.
    pub cpus_per_iteration: usize,
    /// The run's RNG seed (re-running with this seed reproduces the trace).
    pub seed: u64,
    /// Iteration cap.
    pub max_iterations: usize,
}

/// Communication accounted during one update cycle: the difference of the
/// algorithm's [`CommStats`] across the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommDelta {
    /// Messages sent this cycle.
    pub messages: u64,
    /// Congestion summed over this cycle's rounds.
    pub congestion: u64,
    /// Synchronization rounds this cycle.
    pub rounds: u64,
}

impl CommDelta {
    /// Delta `after − before` of two cumulative snapshots.
    pub fn between(before: &CommStats, after: &CommStats) -> Self {
        Self {
            messages: after.messages - before.messages,
            congestion: after.total_congestion - before.total_congestion,
            rounds: after.rounds - before.rounds,
        }
    }
}

/// Summary of the rewards observed in one update cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardSummary {
    /// Probes (= planned arms) this cycle.
    pub probes: usize,
    /// Mean reward.
    pub mean: f64,
    /// Smallest reward.
    pub min: f64,
    /// Largest reward.
    pub max: f64,
}

impl RewardSummary {
    /// Summarize one cycle's reward vector (all-zero when empty).
    pub fn of(rewards: &[f64]) -> Self {
        if rewards.is_empty() {
            return Self {
                probes: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let sum: f64 = rewards.iter().sum();
        Self {
            probes: rewards.len(),
            mean: sum / rewards.len() as f64,
            min: rewards.iter().copied().fold(f64::INFINITY, f64::min),
            max: rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One update cycle of an observed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationEvent {
    /// 1-based update-cycle index; strictly increasing within a run.
    pub iteration: usize,
    /// Current leader arm.
    pub leader: usize,
    /// Leader's probability mass.
    pub leader_share: f64,
    /// Entropy (nats) of the selection distribution.
    pub entropy: f64,
    /// Communication accounted during this cycle.
    pub comm: CommDelta,
    /// Rewards observed this cycle.
    pub reward: RewardSummary,
}

/// Fired at most once per run, on the first cycle where the variant's
/// convergence criterion holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceEvent {
    /// Cycle at which convergence was first detected.
    pub iteration: usize,
    /// Leader at convergence.
    pub leader: usize,
    /// Leader share at convergence.
    pub leader_share: f64,
}

/// One probe of the `mwrepair` online phase (paper Fig. 6 lines 4–14).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeEvent {
    /// Update cycle the probe belongs to (1-based).
    pub iteration: usize,
    /// Agent index within the cycle.
    pub agent: usize,
    /// Mutations composed for this probe (arm index + 1).
    pub composition_size: usize,
    /// Whether the probe retained fitness (a "pool hit").
    pub survived: bool,
    /// Bandit reward credited for the probe.
    pub reward: f64,
}

/// A repairing probe was found; the online phase terminates early.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairEvent {
    /// Cycle at which the repair surfaced (1-based).
    pub iteration: usize,
    /// Agent whose probe repaired.
    pub agent: usize,
    /// Size of the repairing composition.
    pub composition_size: usize,
}

/// Faults injected during one simulated-network round, by class.
///
/// No run emits this event (only tests build one): `chaos` applies its
/// `simnet::FaultPlan` to observations itself and reports convergence per
/// cell, and the `simnet` network delivers every message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Round the faults were injected in (0-based).
    pub round: usize,
    /// Messages dropped.
    pub dropped: u64,
    /// Messages whose delivery was postponed.
    pub delayed: u64,
    /// Extra message copies injected by duplication.
    pub duplicated: u64,
    /// Mailboxes whose delivery order was reversed.
    pub reordered: u64,
    /// Agents down (crashed) this round.
    pub crashed: u64,
    /// Messages lost because their recipient was down on delivery.
    pub lost_to_crash: u64,
    /// Retransmissions scheduled.
    pub retried: u64,
    /// Messages abandoned after the retry cap.
    pub retry_exhausted: u64,
    /// Threads slowed by injected straggler latency.
    pub stragglers: u64,
}

impl FaultEvent {
    /// Total injected fault events.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.reordered
            + self.crashed
            + self.lost_to_crash
            + self.retried
            + self.retry_exhausted
            + self.stragglers
    }
}

/// Storage-health counters from a daemon run (the telemetry-side mirror
/// of `mwrepair-service`'s retry/quarantine accounting — defined here,
/// like [`FaultEvent`], because the service crate sits above mwu-core in
/// the dependency graph). All three are zero in a fault-free run on a
/// healthy disk.
///
/// Nothing produces this event: `mwrepaird` reports the same three
/// counters in its `DaemonSummary` (stdout and `metrics.json`), not
/// through an observer. The type, [`TraceEvent::Storage`] and
/// [`Observer::on_storage`] stay only because `perfbench`'s timing
/// observer implements every [`Observer`] method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageEvent {
    /// Storage operations retried after a transient failure.
    pub io_retries: u64,
    /// Faults injected by a storage-fault adversary (zero on a real disk).
    pub io_faults_injected: u64,
    /// Sessions quarantined behind a durable post-mortem.
    pub sessions_quarantined: u64,
}

/// Start of one (algorithm, dataset) grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStartEvent {
    /// Algorithm variant name.
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Instance size `k`.
    pub size: usize,
    /// Replicates this cell will run.
    pub replicates: usize,
}

/// One finished replicate of a grid cell. `run_seed` and `max_iterations`
/// are a complete recipe for re-running this replicate standalone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicateEvent {
    /// Algorithm variant name.
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Replicate index within the cell.
    pub replicate: u64,
    /// The derived per-replicate seed actually passed to the run driver.
    pub run_seed: u64,
    /// Iteration cap the replicate ran under.
    pub max_iterations: usize,
    /// The replicate's full outcome.
    pub outcome: RunOutcome,
}

/// End of one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEndEvent {
    /// Algorithm variant name.
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Replicates that converged within the cap.
    pub converged: u64,
    /// Replicates executed (0 for intractable cells).
    pub replicates: u64,
    /// `true` when the variant cannot run at this size.
    pub intractable: bool,
}

/// Every event the pipeline can carry, as written to JSONL (externally
/// tagged: `{"Iteration":{...}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Run header.
    RunStart(RunStartEvent),
    /// One update cycle.
    Iteration(IterationEvent),
    /// First convergence.
    Convergence(ConvergenceEvent),
    /// Run footer; agrees field-by-field with the returned [`RunOutcome`].
    RunEnd(RunOutcome),
    /// One `mwrepair` probe.
    Probe(ProbeEvent),
    /// Early-terminating repair.
    Repair(RepairEvent),
    /// One round's injected faults.
    Faults(FaultEvent),
    /// One daemon run's storage-health counters.
    Storage(StorageEvent),
    /// Grid cell header.
    CellStart(CellStartEvent),
    /// Grid replicate footer.
    Replicate(ReplicateEvent),
    /// Grid cell footer.
    CellEnd(CellEndEvent),
}

/// Receiver of run telemetry.
///
/// Drivers call the specific `on_*` methods, whose default implementations
/// wrap the payload in a [`TraceEvent`] and forward to [`Observer::on_event`]
/// — so a sink that treats all events uniformly ([`JsonlSink`]) implements
/// one method, while a selective sink ([`ProgressSink`]) overrides only the
/// events it cares about.
///
/// Drivers must gate all event construction behind [`Observer::enabled`]:
/// that is the contract that makes [`NullObserver`] free.
pub trait Observer {
    /// Whether this observer wants events at all. Drivers skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Uniform event hook; default drops the event.
    fn on_event(&mut self, event: &TraceEvent) {
        let _ = event;
    }

    /// A run is starting.
    fn on_run_start(&mut self, e: RunStartEvent) {
        self.on_event(&TraceEvent::RunStart(e));
    }

    /// One update cycle finished.
    fn on_iteration(&mut self, e: IterationEvent) {
        self.on_event(&TraceEvent::Iteration(e));
    }

    /// The run converged (fires at most once per run).
    fn on_convergence(&mut self, e: ConvergenceEvent) {
        self.on_event(&TraceEvent::Convergence(e));
    }

    /// The run ended; `outcome` is exactly what the driver returns.
    fn on_run_end(&mut self, outcome: RunOutcome) {
        self.on_event(&TraceEvent::RunEnd(outcome));
    }

    /// One `mwrepair` probe finished.
    fn on_probe(&mut self, e: ProbeEvent) {
        self.on_event(&TraceEvent::Probe(e));
    }

    /// A repair was found.
    fn on_repair(&mut self, e: RepairEvent) {
        self.on_event(&TraceEvent::Repair(e));
    }

    /// One round's injected faults (fault-injection runs only).
    fn on_faults(&mut self, e: FaultEvent) {
        self.on_event(&TraceEvent::Faults(e));
    }

    /// One daemon run's storage-health counters (daemon runs only).
    fn on_storage(&mut self, e: StorageEvent) {
        self.on_event(&TraceEvent::Storage(e));
    }

    /// A grid cell is starting.
    fn on_cell_start(&mut self, e: CellStartEvent) {
        self.on_event(&TraceEvent::CellStart(e));
    }

    /// A grid replicate finished.
    fn on_replicate(&mut self, e: ReplicateEvent) {
        self.on_event(&TraceEvent::Replicate(e));
    }

    /// A grid cell finished.
    fn on_cell_end(&mut self, e: CellEndEvent) {
        self.on_event(&TraceEvent::CellEnd(e));
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn on_event(&mut self, event: &TraceEvent) {
        (**self).on_event(event);
    }
    fn on_run_start(&mut self, e: RunStartEvent) {
        (**self).on_run_start(e);
    }
    fn on_iteration(&mut self, e: IterationEvent) {
        (**self).on_iteration(e);
    }
    fn on_convergence(&mut self, e: ConvergenceEvent) {
        (**self).on_convergence(e);
    }
    fn on_run_end(&mut self, outcome: RunOutcome) {
        (**self).on_run_end(outcome);
    }
    fn on_probe(&mut self, e: ProbeEvent) {
        (**self).on_probe(e);
    }
    fn on_repair(&mut self, e: RepairEvent) {
        (**self).on_repair(e);
    }
    fn on_faults(&mut self, e: FaultEvent) {
        (**self).on_faults(e);
    }
    fn on_storage(&mut self, e: StorageEvent) {
        (**self).on_storage(e);
    }
    fn on_cell_start(&mut self, e: CellStartEvent) {
        (**self).on_cell_start(e);
    }
    fn on_replicate(&mut self, e: ReplicateEvent) {
        (**self).on_replicate(e);
    }
    fn on_cell_end(&mut self, e: CellEndEvent) {
        (**self).on_cell_end(e);
    }
}

/// `None` behaves as a disabled observer; `Some(sink)` delegates. Lets
/// callers build optional sinks (e.g. a `--trace`-gated file) without
/// boxing.
impl<O: Observer> Observer for Option<O> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(|o| o.enabled())
    }
    fn on_event(&mut self, event: &TraceEvent) {
        if let Some(o) = self {
            o.on_event(event);
        }
    }
    fn on_run_start(&mut self, e: RunStartEvent) {
        if let Some(o) = self {
            o.on_run_start(e);
        }
    }
    fn on_iteration(&mut self, e: IterationEvent) {
        if let Some(o) = self {
            o.on_iteration(e);
        }
    }
    fn on_convergence(&mut self, e: ConvergenceEvent) {
        if let Some(o) = self {
            o.on_convergence(e);
        }
    }
    fn on_run_end(&mut self, outcome: RunOutcome) {
        if let Some(o) = self {
            o.on_run_end(outcome);
        }
    }
    fn on_probe(&mut self, e: ProbeEvent) {
        if let Some(o) = self {
            o.on_probe(e);
        }
    }
    fn on_repair(&mut self, e: RepairEvent) {
        if let Some(o) = self {
            o.on_repair(e);
        }
    }
    fn on_faults(&mut self, e: FaultEvent) {
        if let Some(o) = self {
            o.on_faults(e);
        }
    }
    fn on_storage(&mut self, e: StorageEvent) {
        if let Some(o) = self {
            o.on_storage(e);
        }
    }
    fn on_cell_start(&mut self, e: CellStartEvent) {
        if let Some(o) = self {
            o.on_cell_start(e);
        }
    }
    fn on_replicate(&mut self, e: ReplicateEvent) {
        if let Some(o) = self {
            o.on_replicate(e);
        }
    }
    fn on_cell_end(&mut self, e: CellEndEvent) {
        if let Some(o) = self {
            o.on_cell_end(e);
        }
    }
}

/// The disabled observer. `enabled()` is a constant `false`, so observed
/// drivers monomorphized over it contain no telemetry code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Fan-out to two observers, enabling composition like "trace file plus
/// progress narration". Enabled when either side is; a disabled side is
/// skipped entirely, so `Tee(trace, ProgressSink::quiet(true))` traces
/// without narrating.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }
    fn on_event(&mut self, event: &TraceEvent) {
        if self.0.enabled() {
            self.0.on_event(event);
        }
        if self.1.enabled() {
            self.1.on_event(event);
        }
    }
    fn on_run_start(&mut self, e: RunStartEvent) {
        if self.0.enabled() {
            self.0.on_run_start(e.clone());
        }
        if self.1.enabled() {
            self.1.on_run_start(e);
        }
    }
    fn on_iteration(&mut self, e: IterationEvent) {
        if self.0.enabled() {
            self.0.on_iteration(e.clone());
        }
        if self.1.enabled() {
            self.1.on_iteration(e);
        }
    }
    fn on_convergence(&mut self, e: ConvergenceEvent) {
        if self.0.enabled() {
            self.0.on_convergence(e.clone());
        }
        if self.1.enabled() {
            self.1.on_convergence(e);
        }
    }
    fn on_run_end(&mut self, outcome: RunOutcome) {
        if self.0.enabled() {
            self.0.on_run_end(outcome.clone());
        }
        if self.1.enabled() {
            self.1.on_run_end(outcome);
        }
    }
    fn on_probe(&mut self, e: ProbeEvent) {
        if self.0.enabled() {
            self.0.on_probe(e.clone());
        }
        if self.1.enabled() {
            self.1.on_probe(e);
        }
    }
    fn on_repair(&mut self, e: RepairEvent) {
        if self.0.enabled() {
            self.0.on_repair(e.clone());
        }
        if self.1.enabled() {
            self.1.on_repair(e);
        }
    }
    fn on_faults(&mut self, e: FaultEvent) {
        if self.0.enabled() {
            self.0.on_faults(e);
        }
        if self.1.enabled() {
            self.1.on_faults(e);
        }
    }
    fn on_storage(&mut self, e: StorageEvent) {
        if self.0.enabled() {
            self.0.on_storage(e);
        }
        if self.1.enabled() {
            self.1.on_storage(e);
        }
    }
    fn on_cell_start(&mut self, e: CellStartEvent) {
        if self.0.enabled() {
            self.0.on_cell_start(e.clone());
        }
        if self.1.enabled() {
            self.1.on_cell_start(e);
        }
    }
    fn on_replicate(&mut self, e: ReplicateEvent) {
        if self.0.enabled() {
            self.0.on_replicate(e.clone());
        }
        if self.1.enabled() {
            self.1.on_replicate(e);
        }
    }
    fn on_cell_end(&mut self, e: CellEndEvent) {
        if self.0.enabled() {
            self.0.on_cell_end(e.clone());
        }
        if self.1.enabled() {
            self.1.on_cell_end(e);
        }
    }
}

/// Writes one JSON event per line to any [`Write`] target.
///
/// Serialization goes through the workspace serde data model with
/// insertion-ordered object keys, so the byte stream for a given event
/// sequence is deterministic — the property the golden-trace tests pin.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) a trace file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("trace flush failed");
        self.out
    }

    /// Flush buffered events.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        let line = serde::json::to_string(&event.to_value());
        writeln!(self.out, "{line}").expect("trace write failed");
    }
}

/// Stderr narration of grid progress — the observer-pipeline replacement
/// for the `eprintln!` calls previously hard-coded into the grid runner.
#[derive(Debug, Clone, Default)]
pub struct ProgressSink {
    quiet: bool,
}

impl ProgressSink {
    /// Narrating sink.
    pub fn new() -> Self {
        Self { quiet: false }
    }

    /// Sink silenced by a `--quiet` flag; reports `enabled() == false` so
    /// drivers skip event construction for it.
    pub fn quiet(quiet: bool) -> Self {
        Self { quiet }
    }
}

impl Observer for ProgressSink {
    fn enabled(&self) -> bool {
        !self.quiet
    }

    fn on_cell_start(&mut self, e: CellStartEvent) {
        eprintln!(
            "  running {} on {} ({} reps)...",
            e.algorithm, e.dataset, e.replicates
        );
    }

    fn on_cell_end(&mut self, e: CellEndEvent) {
        if e.intractable {
            eprintln!("    {} on {}: intractable", e.algorithm, e.dataset);
        } else {
            eprintln!(
                "    {} on {}: {}/{} converged",
                e.algorithm, e.dataset, e.converged, e.replicates
            );
        }
    }

    fn on_repair(&mut self, e: RepairEvent) {
        eprintln!(
            "  repair found at iteration {} (agent {}, {} mutations)",
            e.iteration, e.agent, e.composition_size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration_event(i: usize) -> IterationEvent {
        IterationEvent {
            iteration: i,
            leader: 1,
            leader_share: 0.5,
            entropy: 0.3,
            comm: CommDelta {
                messages: 4,
                congestion: 4,
                rounds: 1,
            },
            reward: RewardSummary::of(&[0.0, 1.0]),
        }
    }

    /// Counts iterations and injected faults — the smallest aggregating
    /// observer.
    #[derive(Default)]
    struct Count {
        iterations: u64,
        faults: u64,
    }

    impl Observer for Count {
        fn on_iteration(&mut self, _: IterationEvent) {
            self.iterations += 1;
        }
        fn on_faults(&mut self, e: FaultEvent) {
            self.faults += e.total();
        }
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
        let u = entropy(&[0.25; 4]);
        assert!((u - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn reward_summary_handles_empty_and_full() {
        let empty = RewardSummary::of(&[]);
        assert_eq!(empty.probes, 0);
        let s = RewardSummary::of(&[0.2, 0.8]);
        assert_eq!(s.probes, 2);
        assert!((s.mean - 0.5).abs() < 1e-12);
        assert_eq!((s.min, s.max), (0.2, 0.8));
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
    }

    #[test]
    fn option_none_is_disabled() {
        assert!(!None::<Count>.enabled());
        assert!(Some(Count::default()).enabled());
        assert!(!Some(NullObserver).enabled());
    }

    #[test]
    fn progress_sink_quiet_is_disabled() {
        assert!(ProgressSink::new().enabled());
        assert!(ProgressSink::quiet(false).enabled());
        assert!(!ProgressSink::quiet(true).enabled());
    }

    #[test]
    fn every_method_forwards_through_tee_option_and_ref() {
        // Each `on_*` method must reach `on_event` as its own variant
        // through every delegating impl: `Tee`, `Option` and `&mut`.
        #[derive(Default)]
        struct Record(Vec<TraceEvent>);
        impl Observer for Record {
            fn on_event(&mut self, event: &TraceEvent) {
                self.0.push(event.clone());
            }
        }
        let outcome = RunOutcome {
            algorithm: "standard",
            iterations: 2,
            converged: true,
            leader: 1,
            leader_share: 0.9,
            cpu_iterations: 4,
            pulls: 4,
            comm: CommStats::default(),
            cpus_per_iteration: 2,
        };
        let events = vec![
            TraceEvent::RunStart(RunStartEvent {
                algorithm: "standard",
                num_arms: 2,
                cpus_per_iteration: 2,
                seed: 1,
                max_iterations: 10,
            }),
            TraceEvent::Iteration(iteration_event(1)),
            TraceEvent::Convergence(ConvergenceEvent {
                iteration: 2,
                leader: 1,
                leader_share: 0.9,
            }),
            TraceEvent::RunEnd(outcome.clone()),
            TraceEvent::Probe(ProbeEvent {
                iteration: 1,
                agent: 0,
                composition_size: 3,
                survived: true,
                reward: 1.0,
            }),
            TraceEvent::Repair(RepairEvent {
                iteration: 1,
                agent: 0,
                composition_size: 3,
            }),
            TraceEvent::Faults(FaultEvent {
                dropped: 1,
                ..FaultEvent::default()
            }),
            TraceEvent::Storage(StorageEvent {
                io_retries: 1,
                ..StorageEvent::default()
            }),
            TraceEvent::CellStart(CellStartEvent {
                algorithm: "standard".into(),
                dataset: "d".into(),
                size: 2,
                replicates: 1,
            }),
            TraceEvent::Replicate(ReplicateEvent {
                algorithm: "standard".into(),
                dataset: "d".into(),
                replicate: 0,
                run_seed: 7,
                max_iterations: 10,
                outcome,
            }),
            TraceEvent::CellEnd(CellEndEvent {
                algorithm: "standard".into(),
                dataset: "d".into(),
                converged: 1,
                replicates: 1,
                intractable: false,
            }),
        ];
        let mut record = Record::default();
        let mut obs = Tee(Some(&mut record), NullObserver);
        for event in events.clone() {
            match event {
                TraceEvent::RunStart(e) => obs.on_run_start(e),
                TraceEvent::Iteration(e) => obs.on_iteration(e),
                TraceEvent::Convergence(e) => obs.on_convergence(e),
                TraceEvent::RunEnd(o) => obs.on_run_end(o),
                TraceEvent::Probe(e) => obs.on_probe(e),
                TraceEvent::Repair(e) => obs.on_repair(e),
                TraceEvent::Faults(e) => obs.on_faults(e),
                TraceEvent::Storage(e) => obs.on_storage(e),
                TraceEvent::CellStart(e) => obs.on_cell_start(e),
                TraceEvent::Replicate(e) => obs.on_replicate(e),
                TraceEvent::CellEnd(e) => obs.on_cell_end(e),
            }
        }
        assert_eq!(record.0, events);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_iteration(iteration_event(1));
        sink.on_convergence(ConvergenceEvent {
            iteration: 1,
            leader: 1,
            leader_share: 0.9,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"Iteration\":"));
        assert!(lines[1].starts_with("{\"Convergence\":"));
        // Each line round-trips through the JSON parser.
        for line in lines {
            let ev = TraceEvent::from_value(&serde::json::parse(line).unwrap()).unwrap();
            let again = serde::json::to_string(&ev.to_value());
            assert_eq!(again, line);
        }
    }

    #[test]
    fn fault_events_reach_metrics_and_jsonl() {
        let fe = FaultEvent {
            round: 3,
            dropped: 5,
            delayed: 2,
            duplicated: 1,
            retried: 4,
            retry_exhausted: 1,
            stragglers: 2,
            ..FaultEvent::default()
        };
        assert_eq!(fe.total(), 15);

        let mut tee = Tee(Count::default(), JsonlSink::new(Vec::new()));
        tee.on_faults(fe);
        assert_eq!(tee.0.faults, 15);
        let text = String::from_utf8(tee.1.into_inner()).unwrap();
        assert!(text.starts_with("{\"Faults\":"));
        let ev = TraceEvent::from_value(&serde::json::parse(text.trim()).unwrap()).unwrap();
        assert_eq!(ev, TraceEvent::Faults(fe));
    }

    #[test]
    fn tee_reaches_both_sides() {
        let mut tee = Tee(Count::default(), Count::default());
        tee.on_iteration(iteration_event(1));
        assert_eq!(tee.0.iterations, 1);
        assert_eq!(tee.1.iterations, 1);
        assert!(tee.enabled());
        assert!(!Tee(NullObserver, NullObserver).enabled());
    }

    #[test]
    fn tee_skips_a_disabled_side() {
        // A quiet ProgressSink reports enabled() == false; teeing it with a
        // live sink must not wake it back up (`--trace --quiet` traces
        // silently).
        struct Panicky;
        impl Observer for Panicky {
            fn enabled(&self) -> bool {
                false
            }
            fn on_event(&mut self, _: &TraceEvent) {
                panic!("disabled observer received an event");
            }
        }
        let mut tee = Tee(Count::default(), Panicky);
        assert!(tee.enabled());
        tee.on_iteration(iteration_event(1));
        tee.on_cell_start(CellStartEvent {
            algorithm: "standard".into(),
            dataset: "d".into(),
            size: 2,
            replicates: 1,
        });
        assert_eq!(tee.0.iterations, 1);
    }
}
