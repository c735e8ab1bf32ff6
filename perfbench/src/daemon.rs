//! The daemon workloads: `repair-catalog` and `daemon-mem`.
//!
//! One repetition opens a fresh daemon in-process (`Daemon::open` +
//! `submit_bytes`: the set-up), runs it (`Daemon::run`), and reads every
//! session's trace and report back. Measured repetitions keep the work
//! directory in a [`MemVfs`]; the traced run adds one on the checkout's
//! filesystem through `RealVfs`, which is where the `vfs` ledger comes
//! from. Sessions are checked against a
//! library replay of the same job (`repair_observed` + `JsonlSink`),
//! which is also where the traced run attributes kernel, probe and trace
//! time.

use crate::memvfs::MemVfs;
use crate::spans::{self, now_ns, Span};
use crate::wrap::{BarrierMark, Clock, ReplayClock, TimedAlg, TimedObserver, TimedVfs};
use crate::{fnv, FNV0};
use apr_sim::{CostLedger, MutationPool};
use mwrepair::{effective_arms, repair_observed, MwRepairConfig, RepairOutcome, VariantChoice};
use mwrepair_service::session::ScenarioData;
use mwrepair_service::{
    encode_line, parse_jobs, BudgetSpec, Daemon, DaemonConfig, DaemonSummary, JobLine, JobSpec,
    RealVfs, ScenarioSpec, SessionReport, SessionStatus, Vfs,
};
use mwu_core::trace::JsonlSink;
use mwu_core::{
    DistributedConfig, DistributedMwu, MwuAlgorithm, SlateConfig, SlateMwu, StandardConfig,
    StandardMwu,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A generated daemon workload.
#[derive(Debug)]
pub struct DaemonInputs {
    /// The JSONL batch submitted to the daemon.
    pub batch: Vec<u8>,
    /// Its jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Update cycles per session per round.
    pub slice: usize,
}

impl DaemonInputs {
    fn new(batch: Vec<u8>, slice: usize) -> Self {
        let jobs = parse_jobs(&batch).expect("generated batch parses").jobs;
        DaemonInputs { batch, jobs, slice }
    }

    /// `loadgen`'s job mix: six small synthetic families, Standard /
    /// Slate / Distributed sessions over `tenants` tenants, and tenant
    /// `t000` budgeted at 1 500 evaluations. The families are `loadgen`'s
    /// default ones (its seed 1) and `seed` draws the jobs' seeds: six
    /// worlds shared by thousands of sessions would otherwise make each
    /// seed a different workload rather than a different sample of one.
    pub fn loadgen(sessions: usize, tenants: usize, seed: u64) -> Self {
        const FAMILY_SEED: u64 = 1;
        let families: Vec<ScenarioSpec> = (0..6u64)
            .map(|f| ScenarioSpec::Synthetic {
                name: format!("load-family-{f}"),
                options: 16 + 2 * f as usize,
                x_star: 4 + f as usize,
                statements: 150 + 25 * f as usize,
                tests: 8 + (f as usize % 3),
                repair_rate: if f % 2 == 0 { 0.0 } else { 0.05 },
                world_seed: FAMILY_SEED + 100 + f,
                pool_size: Some(16 + 2 * f as usize),
            })
            .collect();
        let mut doc = line(&JobLine::Budget(BudgetSpec {
            tenant: "t000".into(),
            max_evals: Some(1_500),
            max_ms: None,
        }));
        for i in 0..sessions {
            let algorithm = match i % 10 {
                3 => VariantChoice::Distributed,
                n if n % 2 == 0 => VariantChoice::Standard,
                _ => VariantChoice::Slate,
            };
            let max_iterations = if algorithm == VariantChoice::Distributed {
                6 + i % 5
            } else {
                10 + (i * 11) % 21
            };
            doc.push_str(&line(&JobLine::Job(JobSpec {
                id: format!("job-{i:05}"),
                tenant: format!("t{:03}", i % tenants),
                scenario: families[i % families.len()].clone(),
                algorithm,
                seed: seed.wrapping_mul(1_000_000_007).wrapping_add(i as u64),
                max_iterations,
            })));
        }
        Self::new(doc.into_bytes(), 8)
    }

    /// The §IV-A catalog: sessions cycle the ten catalog scenarios; each
    /// pass over them uses one variant. The first pass is Distributed
    /// (cap 1 cycle: its whole population probes once, the slowest slice
    /// of round 1), then passes alternate Slate (cap 20) and Standard
    /// (cap 10).
    pub fn catalog(sessions: usize, seed: u64) -> Self {
        let names: Vec<String> = apr_sim::BugScenario::catalog_all()
            .into_iter()
            .map(|s| s.name)
            .collect();
        let mut doc = String::new();
        for i in 0..sessions {
            let (algorithm, max_iterations) = match i / names.len() {
                0 => (VariantChoice::Distributed, 1),
                pass if pass % 2 == 1 => (VariantChoice::Slate, 20),
                _ => (VariantChoice::Standard, 10),
            };
            doc.push_str(&line(&JobLine::Job(JobSpec {
                id: format!("cat-{i:04}"),
                tenant: format!("t{}", i % 4),
                scenario: ScenarioSpec::Catalog {
                    name: names[i % names.len()].clone(),
                },
                algorithm,
                seed: mwu_core::rng::mix(&[seed, i as u64]),
                max_iterations,
            })));
        }
        Self::new(doc.into_bytes(), 8)
    }
}

fn line(l: &JobLine) -> String {
    encode_line(l) + "\n"
}

/// One session's results as read back from the work directory. The
/// trace is kept as its length and digest, so keeping a repetition's
/// outputs for verification does not double its memory.
#[derive(Debug)]
pub struct SessionOut {
    /// Its durable report, if it finished.
    pub report: Option<SessionReport>,
    /// Trace length in bytes.
    pub trace_len: usize,
    /// FNV-1a of the trace bytes.
    pub trace_digest: u64,
    /// Quarantined this run.
    pub quarantined: bool,
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// `Daemon::open` + `submit_bytes`, seconds.
    pub setup_s: f64,
    /// `Daemon::run`, seconds.
    pub run_s: f64,
    /// Peak resident memory from set-up start to `Daemon::run`'s return,
    /// less the in-memory work tree at its largest (the end of the run),
    /// MB. The tree would be page cache on a real filesystem.
    pub rss_mb: f64,
    /// The in-memory work tree at the end of the run, MB (0 on disk).
    pub store_mb: f64,
    /// Jobs the daemon accepted.
    pub accepted: usize,
    /// The run's summary.
    pub summary: DaemonSummary,
    /// FNV-1a of every session's id, trace and report bytes.
    pub digest: u64,
    /// Per-session outputs, when asked to keep them.
    pub outputs: Option<Vec<SessionOut>>,
    /// Span ids and times of the traced phases (traced repetitions only).
    pub traced: Option<TracedRep>,
}

/// Timestamps a traced repetition needs to cut its spans into phases.
#[derive(Debug, Clone)]
pub struct TracedRep {
    /// Set-up span id.
    pub setup_id: u64,
    /// Run span id.
    pub run_id: u64,
    /// `Daemon::run` start, span clock.
    pub run_start_ns: u64,
    /// Process CPU time at `Daemon::run` start.
    pub run_start_cpu_ns: u64,
    /// The wrapper's barrier calls.
    pub marks: Vec<BarrierMark>,
}

/// Run one repetition. Its work directory is in a fresh [`MemVfs`], or,
/// given `disk`, below that directory through `RealVfs`. With `timed`,
/// the store is wrapped in a [`TimedVfs`] and set-up and run are
/// recorded as spans.
pub fn run_rep(
    inp: &DaemonInputs,
    tag: &str,
    keep: bool,
    timed: bool,
    disk: Option<&Path>,
) -> Result<Rep, String> {
    let (mem, store_vfs, workdir): (_, Arc<dyn Vfs>, _) = match disk {
        None => {
            let mem = Arc::new(MemVfs::default());
            (Some(Arc::clone(&mem)), mem, PathBuf::from("/mem/work"))
        }
        Some(dir) => {
            let workdir = dir.join(format!("work-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&workdir);
            // Flush what earlier work left dirty, so this repetition's
            // barriers (`syncfs`) pay for its own writes.
            let _ = RealVfs.sync_barrier(&[dir.to_path_buf()]);
            (None, Arc::new(RealVfs), workdir)
        }
    };
    let tv = timed.then(|| Arc::new(TimedVfs::new(Arc::clone(&store_vfs), workdir.clone())));
    let mut config = DaemonConfig::new(&workdir);
    config.slice_iterations = inp.slice;
    config.quiet = true;
    config.vfs = match &tv {
        Some(tv) => Arc::clone(tv) as Arc<dyn Vfs>,
        None => Arc::clone(&store_vfs),
    };
    let setup_id = spans::new_id();
    if let Some(tv) = &tv {
        tv.set_parent(setup_id);
    }
    crate::host::reset_peak_rss()?;
    let setup_start = now_ns();
    let t0 = Instant::now();
    let mut daemon = Daemon::open(config).map_err(|e| e.to_string())?;
    let accepted = daemon.submit_bytes(&inp.batch).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_end = now_ns();
    let run_id = spans::new_id();
    let run_start_cpu_ns = if timed {
        crate::host::process_cpu_ns()
    } else {
        0
    };
    if let Some(tv) = &tv {
        tv.set_parent(run_id);
    }
    let run_start_ns = now_ns();
    let t1 = Instant::now();
    let summary = daemon.run().map_err(|e| e.to_string())?;
    let run_s = t1.elapsed().as_secs_f64();
    let run_end = now_ns();
    let peak_mb = crate::host::peak_rss_mb();
    let store_mb = mem
        .as_ref()
        .map_or(0.0, |m| m.held_bytes() as f64 / (1024.0 * 1024.0));
    let traced = tv.as_ref().map(|tv| {
        tv.set_parent(0);
        for (id, name, start, end) in [
            (setup_id, "daemon.setup", setup_start, setup_end),
            (run_id, "daemon.run", run_start_ns, run_end),
        ] {
            spans::record(Span {
                id,
                name,
                start_ns: start,
                end_ns: end,
                parent: 0,
                req: "daemon".into(),
                n: 1,
                size: 0,
            });
        }
        TracedRep {
            setup_id,
            run_id,
            run_start_ns,
            run_start_cpu_ns,
            marks: tv.barriers(),
        }
    });

    let mut digest = FNV0;
    let mut outputs = keep.then(Vec::new);
    for s in daemon.sessions() {
        let trace = store_vfs.read(&s.trace_path()).unwrap_or_default();
        let trace_digest = fnv(FNV0, &trace);
        let report = s.report().cloned();
        digest = fnv(digest, s.job().id.as_bytes());
        digest = fnv(digest, &trace_digest.to_le_bytes());
        digest = fnv(
            digest,
            report
                .as_ref()
                .map(|r| r.to_json())
                .unwrap_or_default()
                .as_bytes(),
        );
        if let Some(out) = &mut outputs {
            out.push(SessionOut {
                report,
                trace_len: trace.len(),
                trace_digest,
                quarantined: s.quarantine().is_some(),
            });
        }
    }
    drop(daemon);
    if disk.is_some() {
        let _ = std::fs::remove_dir_all(&workdir);
    }
    Ok(Rep {
        setup_s,
        run_s,
        rss_mb: peak_mb - store_mb,
        store_mb,
        accepted,
        summary,
        digest,
        outputs,
        traced,
    })
}

/// Build each distinct scenario and its pool once, as the daemon does.
pub fn scenario_data(jobs: &[JobSpec]) -> HashMap<String, Arc<ScenarioData>> {
    let mut out = HashMap::new();
    for job in jobs {
        out.entry(job.scenario.cache_key()).or_insert_with(|| {
            let scenario = job.scenario.build().expect("generated scenario builds");
            let pool = scenario.build_pool(1, None);
            Arc::new(ScenarioData { scenario, pool })
        });
    }
    out
}

/// A library replay's trace bytes and outcome.
pub struct Replay {
    /// JSONL trace.
    pub trace: Vec<u8>,
    /// Outcome (ledger-costed, as the daemon's sessions are).
    pub outcome: RepairOutcome,
}

fn drive<A: MwuAlgorithm>(
    alg: A,
    data: &ScenarioData,
    config: &MwRepairConfig,
    clock: Option<&Clock>,
) -> Replay {
    let ledger = CostLedger::new();
    let sink = JsonlSink::new(Vec::new());
    let (trace, outcome) = match clock {
        None => {
            let (mut alg, mut sink) = (alg, sink);
            let outcome = repair_observed(
                &data.scenario,
                &data.pool,
                &mut alg,
                config,
                Some(&ledger),
                &mut sink,
            );
            (sink.into_inner(), outcome)
        }
        Some(clock) => {
            let mut alg = TimedAlg::new(alg, Rc::clone(clock));
            let mut sink = TimedObserver::new(sink, Rc::clone(clock));
            let outcome = repair_observed(
                &data.scenario,
                &data.pool,
                &mut alg,
                config,
                Some(&ledger),
                &mut sink,
            );
            clock.borrow_mut().finish(now_ns());
            (sink.into_inner().into_inner(), outcome)
        }
    };
    Replay { trace, outcome }
}

/// Replay one job through `repair_observed`, optionally wrapped.
pub fn replay(job: &JobSpec, data: &ScenarioData, clock: Option<&Clock>) -> Replay {
    let mut config = MwRepairConfig::seeded(job.seed);
    config.max_iterations = job.max_iterations;
    let arms = effective_arms(data.pool.len(), &config);
    match job.algorithm {
        VariantChoice::Standard => drive(
            StandardMwu::new(arms, StandardConfig::default()),
            data,
            &config,
            clock,
        ),
        VariantChoice::Slate => drive(
            SlateMwu::new(arms, SlateConfig::default()),
            data,
            &config,
            clock,
        ),
        VariantChoice::Distributed => drive(
            DistributedMwu::try_new(arms, DistributedConfig::default())
                .expect("daemon accepted the job, so the variant is tractable"),
            data,
            &config,
            clock,
        ),
    }
}

fn count_lines(trace: &[u8], tag: &str) -> usize {
    trace
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(tag.as_bytes()))
        .count()
}

/// Check one session against its replay; `None` when it matches.
pub fn check_session(out: &SessionOut, replay: &Replay, slice: usize) -> Option<String> {
    if out.quarantined {
        return Some("quarantined".into());
    }
    let Some(report) = &out.report else {
        return Some("no report".into());
    };
    let o = &replay.outcome;
    match report.status {
        SessionStatus::Completed => {
            if (out.trace_len, out.trace_digest) != (replay.trace.len(), fnv(FNV0, &replay.trace)) {
                return Some("trace differs from the replay".into());
            }
            if (
                report.iterations,
                report.repaired,
                report.cost.fitness_evals,
            ) != (o.iterations, o.is_repaired(), o.cost.fitness_evals)
            {
                return Some(format!(
                    "report (iterations {}, repaired {}, evals {}) != replay ({}, {}, {})",
                    report.iterations,
                    report.repaired,
                    report.cost.fitness_evals,
                    o.iterations,
                    o.is_repaired(),
                    o.cost.fitness_evals
                ));
            }
        }
        SessionStatus::BudgetExhausted => {
            let n = report.iterations;
            let Some(prefix) = replay.trace.get(..out.trace_len) else {
                return Some("budget-exhausted trace is longer than the replay".into());
            };
            if fnv(FNV0, prefix) != out.trace_digest || prefix.last().is_some_and(|&b| b != b'\n') {
                return Some("budget-exhausted trace is not a prefix of the replay".into());
            }
            if n % slice != 0 || n >= o.iterations || count_lines(prefix, "{\"Iteration\"") != n {
                return Some(format!(
                    "budget halt at iteration {n} is not a slice boundary"
                ));
            }
            let rest = &replay.trace[out.trace_len..];
            if !rest.is_empty() && !rest.starts_with(b"{\"Probe\"") {
                return Some("budget-exhausted trace ends mid-cycle".into());
            }
            let probes = count_lines(prefix, "{\"Probe\"") as u64;
            if report.repaired || report.cost.fitness_evals != probes {
                return Some(format!(
                    "budget report (repaired {}, evals {}) != replay prefix (false, {probes})",
                    report.repaired, report.cost.fitness_evals
                ));
            }
        }
    }
    None
}

/// What a verification pass found.
#[derive(Debug, Default)]
pub struct Verified {
    /// Failure messages, job id first.
    pub failures: Vec<String>,
    /// Thread time the replays took, ns.
    pub replay_cpu_ns: u64,
    /// Replay totals: trace bytes, probes, iterations, fitness evals.
    pub totals: [u64; 4],
}

/// Replay every job in parallel and check its session.
pub fn verify(inp: &DaemonInputs, outputs: &[SessionOut]) -> Verified {
    let data = scenario_data(&inp.jobs);
    let cpu0 = crate::host::process_cpu_ns();
    let checked: Vec<(Option<String>, [u64; 4])> = inp
        .jobs
        .par_iter()
        .enumerate()
        .map(|(i, job)| {
            let r = replay(job, &data[&job.scenario.cache_key()], None);
            let o = &r.outcome;
            let totals = [
                r.trace.len() as u64,
                o.probes,
                o.iterations as u64,
                o.cost.fitness_evals,
            ];
            let failure = check_session(&outputs[i], &r, inp.slice);
            (failure.map(|m| format!("{}: {m}", job.id)), totals)
        })
        .collect();
    let mut out = Verified {
        replay_cpu_ns: crate::host::process_cpu_ns().saturating_sub(cpu0),
        ..Verified::default()
    };
    for (failure, totals) in checked {
        out.failures.extend(failure);
        for (sum, t) in out.totals.iter_mut().zip(totals) {
            *sum += t;
        }
    }
    out
}

/// Cut a traced repetition's spans into slice phases and Vfs categories.
/// Returns the per-layer values (ms, counts, shares) plus the derived
/// slice-phase spans.
pub fn rep_layers(
    rep: &Rep,
    t: &TracedRep,
    spans: &[Span],
    threads: usize,
    replay_cpu_ns: u64,
) -> (Vec<(&'static str, f64)>, Vec<Span>) {
    let vfs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("vfs.") && (s.parent == t.setup_id || s.parent == t.run_id))
        .collect();
    // Calls the daemon makes between rounds, on its own thread.
    let main_thread = |s: &Span| matches!(s.name, "vfs.commit" | "vfs.fsync" | "vfs.remove");
    let (mut slice_wall, mut slice_cpu, mut slice_vfs) = (0u64, 0u64, 0u64);
    let mut phases = Vec::new();
    let (mut prev_end, mut prev_cpu) = (t.run_start_ns, t.run_start_cpu_ns);
    let mut rounds = 0u64;
    for m in t.marks.iter().filter(|m| !m.flush) {
        rounds += 1;
        let inside = |s: &&&Span| s.start_ns >= prev_end && s.end_ns <= m.start_ns;
        // The phase starts once the previous barrier's commits (or the
        // spool write) are done and ends with the last slice's staging.
        let start = vfs
            .iter()
            .filter(inside)
            .filter(|s| main_thread(s))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(prev_end);
        let end = vfs
            .iter()
            .filter(inside)
            .filter(|s| s.name == "vfs.stage")
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(start)
            .max(start);
        let outside = (start - prev_end) + (m.start_ns - end);
        slice_wall += end - start;
        slice_cpu += m
            .cpu_start_ns
            .saturating_sub(prev_cpu)
            .saturating_sub(outside);
        slice_vfs += vfs
            .iter()
            .filter(|s| s.start_ns >= start && s.end_ns <= end && !main_thread(s))
            .map(|s| s.dur_ns())
            .sum::<u64>();
        phases.push(Span {
            id: spans::new_id(),
            name: "daemon.slice_phase",
            start_ns: start,
            end_ns: end,
            parent: t.run_id,
            req: format!("round-{rounds}"),
            n: 1,
            size: 0,
        });
        prev_end = m.end_ns;
        prev_cpu = m.cpu_end_ns;
    }
    let totals = spans::totals(vfs.iter().copied());
    let total = |name: &str, i: usize| totals.get(name).map_or(0.0, |t| t[i] as f64);
    let ms = |name: &str| total(name, 0) / 1e6;
    let calls = |name: &str| total(name, 1);
    let other = [
        "vfs.read",
        "vfs.len",
        "vfs.remove",
        "vfs.exists",
        "vfs.sync_file",
    ];
    let slice_wall_ms = slice_wall as f64 / 1e6;
    let slice_cpu_ms = slice_cpu as f64 / 1e6;
    let values = vec![
        ("daemon.rounds", rounds as f64),
        ("daemon.slice_phase_ms", slice_wall_ms),
        (
            "session.other_ms",
            slice_cpu_ms - slice_vfs as f64 / 1e6 - replay_cpu_ns as f64 / 1e6,
        ),
        (
            "rayon.busy_share",
            slice_cpu_ms / (slice_wall_ms * threads as f64).max(1e-9),
        ),
        (
            "rayon.idle_ms",
            (slice_wall_ms * threads as f64 - slice_cpu_ms).max(0.0),
        ),
        ("daemon.setup_ms", rep.setup_s * 1e3),
        ("daemon.run_ms", rep.run_s * 1e3),
        ("vfs.mkdir_ms", ms("vfs.mkdir")),
        ("vfs.mkdir_calls", calls("vfs.mkdir")),
        ("vfs.stage_ms", ms("vfs.stage")),
        ("vfs.stage_calls", calls("vfs.stage")),
        ("vfs.stage_bytes", total("vfs.stage", 2)),
        ("vfs.barrier_ms", ms("vfs.barrier")),
        ("vfs.barrier_calls", calls("vfs.barrier")),
        ("vfs.barrier_files", total("vfs.barrier", 2)),
        ("vfs.commit_ms", ms("vfs.commit")),
        ("vfs.commit_calls", calls("vfs.commit")),
        ("vfs.fsync_ms", ms("vfs.fsync")),
        ("vfs.fsync_calls", calls("vfs.fsync")),
        ("vfs.other_ms", other.iter().map(|n| ms(n)).sum()),
    ];
    (values, phases)
}

/// Kernel, probe, trace and driver time from a wrapped, sequential
/// replay of every job (each job's probes still run on the pool).
pub fn replay_layers(inp: &DaemonInputs) -> Vec<(&'static str, f64)> {
    let data = scenario_data(&inp.jobs);
    let mut clocks = Vec::new();
    let (mut replay_ns, mut bytes, mut evals, mut probes, mut iterations) = (0u64, 0, 0, 0, 0);
    for job in &inp.jobs {
        let clock: Clock = Rc::default();
        let id = spans::new_id();
        let start = now_ns();
        let r = replay(job, &data[&job.scenario.cache_key()], Some(&clock));
        let end = now_ns();
        let c = clock.borrow().clone();
        replay_ns += end - start;
        bytes += r.trace.len() as u64;
        evals += r.outcome.cost.fitness_evals;
        probes += r.outcome.probes;
        iterations += r.outcome.iterations as u64;
        record_replay(id, start, end, &job.id, &c, "apr.probe");
        clocks.push(c);
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum = |f: fn(&ReplayClock) -> u64| clocks.iter().map(f).sum::<u64>();
    let (plan, update) = (sum(|c| c.plan_ns), sum(|c| c.update_ns));
    let probe = sum(|c| c.gap_ns - c.observer_in_gap_ns);
    let obs = sum(|c| c.observer_ns);
    let mut out = core_values(&clocks);
    out.extend([
        ("apr.probe_ms", ms(probe)),
        ("apr.fitness_evals", evals as f64),
        (
            "apr.evals_per_s",
            evals as f64 / (probe as f64 / 1e9).max(1e-9),
        ),
        ("trace.encode_ms", ms(obs)),
        ("trace.bytes", bytes as f64),
        (
            "mwrepair.other_ms",
            ms(replay_ns) - ms(plan) - ms(update) - ms(probe) - ms(obs),
        ),
        ("mwrepair.probes", probes as f64),
        ("mwrepair.iterations", iterations as f64),
    ]);
    out
}

/// The `core.*` values from replays' kernel clocks.
pub fn core_values(clocks: &[ReplayClock]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&ReplayClock) -> u64| clocks.iter().map(f).sum::<u64>();
    let per_round = |v: &str| {
        let of = |c: &ReplayClock| c.variant == v;
        let ns = sum(&|c| if of(c) { c.plan_ns + c.update_ns } else { 0 });
        let rounds = sum(&|c| if of(c) { c.rounds } else { 0 });
        ns as f64 / rounds.max(1) as f64
    };
    vec![
        ("core.plan_ms", sum(&|c| c.plan_ns) as f64 / 1e6),
        ("core.update_ms", sum(&|c| c.update_ns) as f64 / 1e6),
        ("core.rounds", sum(&|c| c.rounds) as f64),
        ("core.standard.ns_per_round", per_round("standard")),
        ("core.slate.ns_per_round", per_round("slate")),
        ("core.distributed.ns_per_round", per_round("distributed")),
    ]
}

/// Record a replay span and its rollup children.
pub fn record_replay(id: u64, start: u64, end: u64, req: &str, c: &ReplayClock, gap: &'static str) {
    spans::record(Span {
        id,
        name: "replay",
        start_ns: start,
        end_ns: end,
        parent: 0,
        req: req.into(),
        n: 1,
        size: 0,
    });
    for (name, ns, n) in [
        ("core.plan", c.plan_ns, c.rounds),
        ("core.update", c.update_ns, c.rounds),
        (gap, c.gap_ns - c.observer_in_gap_ns, c.rounds),
        ("trace.observer", c.observer_ns, c.observer_calls),
    ] {
        if n > 0 {
            spans::record(Span {
                id: spans::new_id(),
                name,
                start_ns: start,
                end_ns: start + ns,
                parent: id,
                req: req.into(),
                n,
                size: 0,
            });
        }
    }
}

/// Direct timed calls into set-up's parts: `parse_jobs`, and
/// `ScenarioSpec::build` + `BugScenario::build_pool` per distinct spec.
/// Each call is made [`SETUP_SAMPLES`] times and recorded as a span; the
/// median is reported.
pub fn setup_layers(inp: &DaemonInputs) -> Vec<(&'static str, f64)> {
    let timed = |name: &'static str, req: &str, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let start = now_ns();
                f();
                let end = now_ns();
                spans::push(name, start, end, 0, req.into());
                (end - start) as f64 / 1e6
            })
            .collect();
        crate::median(&samples)
    };
    let parse_ms = timed("protocol.parse", "batch", &mut || {
        parse_jobs(&inp.batch).expect("generated batch parses");
    });
    let lines = inp
        .batch
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    let (mut precompute_ms, mut candidates) = (0.0, 0u64);
    let mut seen = std::collections::HashSet::new();
    for job in &inp.jobs {
        if !seen.insert(job.scenario.cache_key()) {
            continue;
        }
        let mut scenario = None;
        timed("apr.build", &job.id, &mut || {
            scenario = Some(job.scenario.build().expect("generated scenario builds"));
        });
        let scenario = scenario.expect("built above");
        // Timed as the daemon calls it; a ledger's shared counter would
        // add contention the daemon does not pay, so count separately.
        precompute_ms += timed("apr.precompute", &job.id, &mut || {
            let _: MutationPool = scenario.build_pool(1, None);
        });
        let ledger = CostLedger::new();
        scenario.build_pool(1, Some(&ledger));
        candidates += ledger.fitness_evals();
    }
    vec![
        ("protocol.parse_ms", parse_ms),
        ("protocol.lines", lines as f64),
        ("apr.precompute_ms", precompute_ms),
        ("apr.candidates_tested", candidates as f64),
    ]
}

/// Samples per direct set-up call.
const SETUP_SAMPLES: usize = 3;
