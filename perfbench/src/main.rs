//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//! `perfbench compare RECORD_A RECORD_B`
//!
//! Runs one workload in this process with the rayon pool capped at the
//! host's available parallelism, repeating it until `--seconds` have
//! passed, and prints a human summary followed by one JSON result line.
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer ledger. Every output is verified
//! against a library replay outside the timed region; any mismatch, or
//! any exact work count that differs between runs of one seed, makes the
//! command exit 1. `--inject-mismatch` corrupts one output before
//! verification to prove that path. Records and spans go to
//! `.bench_out/` in the current directory.

use perfbench::daemon::{self, DaemonInputs, Rep};
use perfbench::grid::{self, Collect};
use perfbench::spans::{self, now_ns, Span};
use perfbench::wrap::{Clock, TimedObserver};
use perfbench::{host, median, percentile, record};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::rc::Rc;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["grid", "repair-catalog", "daemon-mem"];

/// Traced repetitions per traced run (counts must agree between them).
const TRACED_REPS: usize = 2;

/// Timed repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Repetitions run first and left out of the run-phase medians: a
/// process's first repetition can pay one-time costs (one `repair-catalog`
/// run's first took 8.1 s against 4.5–4.9 s for the rest). They are
/// verified like every other. Set-up keeps them: a fresh process pays its
/// set-up. Peak memory is the first repetition's alone: later ones start
/// from the heap earlier ones left, and their peaks drifted upward by
/// 10–40 % within a run as it fragmented.
const WARMUP_REPS: usize = 1;

/// Dataset generations timed per grid repetition.
const GRID_SETUP_SAMPLES: usize = 5;

/// The per-layer ledger, in output order, with units.
const LAYERS: [(&str, &str); 41] = [
    ("core.plan_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.rounds", "count"),
    ("core.standard.ns_per_round", "ns"),
    ("core.slate.ns_per_round", "ns"),
    ("core.distributed.ns_per_round", "ns"),
    ("datasets.build_ms", "ms"),
    ("datasets.pull_ms", "ms"),
    ("apr.precompute_ms", "ms"),
    ("apr.candidates_tested", "count"),
    ("apr.probe_ms", "ms"),
    ("apr.fitness_evals", "count"),
    ("apr.evals_per_s", "1/s"),
    ("trace.encode_ms", "ms"),
    ("trace.bytes", "B"),
    ("mwrepair.other_ms", "ms"),
    ("mwrepair.probes", "count"),
    ("mwrepair.iterations", "count"),
    ("protocol.parse_ms", "ms"),
    ("protocol.lines", "count"),
    ("daemon.admit_ms", "ms"),
    ("daemon.rounds", "count"),
    ("daemon.slice_phase_ms", "ms"),
    ("session.other_ms", "ms"),
    ("vfs.mkdir_ms", "ms"),
    ("vfs.mkdir_calls", "count"),
    ("vfs.stage_ms", "ms"),
    ("vfs.stage_calls", "count"),
    ("vfs.stage_bytes", "B"),
    ("vfs.barrier_ms", "ms"),
    ("vfs.barrier_calls", "count"),
    ("vfs.barrier_files", "count"),
    ("vfs.commit_ms", "ms"),
    ("vfs.commit_calls", "count"),
    ("vfs.fsync_ms", "ms"),
    ("vfs.fsync_calls", "count"),
    ("vfs.other_ms", "ms"),
    ("rayon.busy_share", "ratio"),
    ("rayon.idle_ms", "ms"),
    ("exp.csv_ms", "ms"),
    ("bench.tracing_overhead_share", "ratio"),
];

/// Seed-determined counts: equal across repetitions and across runs of
/// one seed on the same code, or the run fails.
const EXACT: [&str; 15] = [
    "core.rounds",
    "apr.candidates_tested",
    "apr.fitness_evals",
    "trace.bytes",
    "mwrepair.probes",
    "mwrepair.iterations",
    "protocol.lines",
    "daemon.rounds",
    "vfs.mkdir_calls",
    "vfs.stage_calls",
    "vfs.stage_bytes",
    "vfs.barrier_calls",
    "vfs.barrier_files",
    "vfs.commit_calls",
    "vfs.fsync_calls",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: bool,
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    /// End-to-end metrics: (name, value, unit).
    e2e: Vec<(&'static str, f64, &'static str)>,
    /// The same figures under their per-workload names, for people.
    human: Vec<(String, f64, &'static str)>,
    /// Per-layer values (trace runs).
    layers: Vec<(&'static str, f64)>,
    /// Exact counts to hold equal across runs of this seed.
    counts: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reps: usize,
    store_fs: String,
    /// Filesystem under the traced run's `RealVfs` work directory.
    vfs_fs: String,
    /// Share of CPU time the hypervisor stole while measuring.
    steal_share: f64,
    spans: Vec<Span>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--inject-mismatch]\n       perfbench compare RECORD_A RECORD_B",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        inject: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--inject-mismatch" => args.inject = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("compare") {
        compare(&argv[2..]);
    }
    let args = parse_args();
    let threads = host::available_parallelism();
    rayon::set_num_threads(threads);
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        exit(1);
    }
    let run = match args.workload.as_str() {
        "grid" => run_grid(&args, &out_dir, threads),
        name => run_daemon(&args, name, &out_dir, threads),
    };
    let mut out = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        exit(1)
    });
    let source = record::source_digest();
    check_counts_against_record(&args, &out_dir, &source, &mut out);
    write_record(&args, &out_dir, threads, &source, &out);
    report(&args, threads, &out);
    exit(if out.failed == 0 && out.failures.is_empty() {
        0
    } else {
        1
    });
}

/// Repeat `rep` until `seconds` have passed ([`WARMUP_REPS`] +
/// [`MIN_REPS`] times at least).
/// Also returns the share of the machine's CPU time the hypervisor stole
/// meanwhile: host contention the run record should show.
fn measure<R>(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<R, String>,
) -> Result<(Vec<R>, f64), String> {
    let (start, steal0) = (Instant::now(), host::steal_s());
    let mut reps = Vec::new();
    while reps.len() < WARMUP_REPS + MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep(reps.len())?);
    }
    Ok((
        reps,
        (host::steal_s() - steal0) / start.elapsed().as_secs_f64(),
    ))
}

fn run_daemon(args: &Args, name: &str, out_dir: &Path, threads: usize) -> Result<Outcome, String> {
    let (inp, tail_q, tail_name) = match name {
        "repair-catalog" => (
            DaemonInputs::catalog(100, args.seed),
            0.90,
            "session_p90_ms",
        ),
        _ => (
            DaemonInputs::loadgen(1000, 50, args.seed),
            0.99,
            "session_p99_ms",
        ),
    };
    let jobs = inp.jobs.len() as u64;
    let (mut reps, steal_share) = measure(args.seconds, |i| {
        daemon::run_rep(&inp, &format!("r{i}"), i == 0, false, None)
    })?;
    let mut outputs = reps[0]
        .outputs
        .take()
        .expect("first repetition keeps outputs");
    let warm = &reps[WARMUP_REPS..];
    let (peak_rss_mb, store_mb) = (reps[0].rss_mb, reps[0].store_mb);
    eprintln!(
        "perfbench {name}: setup ms {:.1?} run ms {:.1?} peak MB {:.1?} work tree MB {:.1?}",
        reps.iter().map(|r| r.setup_s * 1e3).collect::<Vec<_>>(),
        reps.iter().map(|r| r.run_s * 1e3).collect::<Vec<_>>(),
        reps.iter().map(|r| r.rss_mb).collect::<Vec<_>>(),
        reps.iter().map(|r| r.store_mb).collect::<Vec<_>>()
    );

    let mut out = Outcome {
        reps: reps.len(),
        store_fs: "memory".into(),
        steal_share,
        attempted: jobs * reps.len() as u64,
        ..Outcome::default()
    };
    let counts = |r: &Rep| {
        let s = &r.summary;
        vec![
            ("sessions.accepted".to_string(), r.accepted as f64),
            (
                "sessions.finished".into(),
                (s.completed + s.budget_exhausted) as f64,
            ),
            ("sessions.repaired".into(), s.repaired as f64),
            ("daemon.rounds".into(), s.rounds as f64),
            ("io_syncs_batched".into(), s.io_syncs_batched as f64),
            ("outputs.digest".into(), (r.digest >> 12) as f64),
        ]
    };
    out.counts = counts(&reps[0]);
    for (i, r) in reps.iter().enumerate().skip(1) {
        if counts(r) != out.counts {
            out.failures.push(format!(
                "repetition {i}: work counts or output bytes differ from repetition 0"
            ));
            out.failed += jobs;
        }
    }

    // Verification, outside every timed region.
    if args.inject {
        outputs[0].trace_digest ^= 1;
    }
    let verified = daemon::verify(&inp, &outputs);
    drop(outputs);
    let rejected = jobs - reps[0].accepted as u64;
    out.failed += verified.failures.len() as u64 + rejected;
    out.failures.extend(verified.failures.iter().cloned());
    if rejected > 0 {
        out.failures
            .push(format!("{rejected} jobs rejected at submit"));
    }

    let setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let finished = |r: &Rep| (r.summary.completed + r.summary.budget_exhausted) as f64;
    let per_s = median(
        &warm
            .iter()
            .map(|r| finished(r) / r.run_s)
            .collect::<Vec<_>>(),
    );
    let lat = |q: f64| {
        median(
            &warm
                .iter()
                .map(|r| percentile(&r.summary.session_wall_ms, q))
                .collect::<Vec<_>>(),
        )
    };
    let (p50, tail) = (lat(0.5), lat(tail_q));
    let failed_share = out.failed as f64 / out.attempted as f64;
    out.e2e = vec![
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", per_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let n = reps[0].summary.session_wall_ms.len() as f64;
    out.human = vec![
        ("setup_s".into(), setup_s, "s"),
        ("sessions_per_s".into(), per_s, "1/s"),
        ("session_p50_ms".into(), p50, "ms"),
        (tail_name.into(), tail, "ms"),
        ("sessions_per_rep".into(), n, "count"),
        ("failed_share".into(), failed_share, "ratio"),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
        ("work_tree_mb".into(), store_mb, "MB"),
    ];

    if args.trace {
        let untraced_run_ms = median(&warm.iter().map(|r| r.run_s * 1e3).collect::<Vec<_>>());
        drop(reps);
        daemon_ledger(&inp, &mut out, out_dir, threads, &verified, untraced_run_ms)?;
    }
    Ok(out)
}

/// The traced part of a daemon run: direct set-up calls, traced
/// repetitions through the Vfs wrapper, and a wrapped replay. The
/// repetitions on the in-memory store give the daemon, session and pool
/// figures; one more on the checkout's filesystem gives the `vfs` layer,
/// so its times are the program's own `RealVfs`.
fn daemon_ledger(
    inp: &DaemonInputs,
    out: &mut Outcome,
    out_dir: &Path,
    threads: usize,
    verified: &daemon::Verified,
    untraced_run_ms: f64,
) -> Result<(), String> {
    let setup = daemon::setup_layers(inp);
    out.spans.extend(spans::drain());
    let digest = out
        .counts
        .iter()
        .find(|c| c.0 == "outputs.digest")
        .map(|c| c.1);
    let mut traced = |tag: &str, disk: Option<&Path>| -> Result<_, String> {
        let rep = daemon::run_rep(inp, tag, false, true, disk)?;
        let t = rep.traced.clone().expect("traced repetition");
        let mut sp = spans::drain();
        let (layers, phases) = daemon::rep_layers(&rep, &t, &sp, threads, verified.replay_cpu_ns);
        // Vfs calls made during a slice phase are its children.
        for s in sp.iter_mut().filter(|s| s.parent == t.run_id) {
            if let Some(p) = phases
                .iter()
                .find(|p| s.start_ns >= p.start_ns && s.end_ns <= p.end_ns)
            {
                s.parent = p.id;
            }
        }
        let mut values = layers;
        values.push(("io_syncs_batched", rep.summary.io_syncs_batched as f64));
        if Some((rep.digest >> 12) as f64) != digest {
            out.failures.push(format!(
                "traced repetition {tag}: output bytes differ from the untraced run"
            ));
        }
        if rep.summary.rounds as f64 != get(&values, "daemon.rounds")
            || rep.summary.io_syncs_batched as f64 != get(&values, "vfs.barrier_files")
        {
            out.failures.push(format!(
                "traced repetition {tag}: wrapper saw {} rounds / {} barrier files, daemon reports {} / {}",
                get(&values, "daemon.rounds"),
                get(&values, "vfs.barrier_files"),
                rep.summary.rounds,
                rep.summary.io_syncs_batched
            ));
        }
        out.spans.extend(sp);
        out.spans.extend(phases);
        Ok(values)
    };
    let mut per_rep = Vec::new();
    for i in 0..TRACED_REPS {
        per_rep.push(traced(&format!("t{i}"), None)?);
    }
    let disk_dir = out_dir.join(format!("vfs-{}", std::process::id()));
    std::fs::create_dir_all(&disk_dir).map_err(|e| e.to_string())?;
    let on_disk = traced("disk", Some(&disk_dir));
    out.vfs_fs = host::fs_type(&disk_dir);
    let _ = std::fs::remove_dir_all(&disk_dir);
    let on_disk = on_disk?;
    let replay = daemon::replay_layers(inp);
    out.spans.extend(spans::drain());
    let names = [
        "trace.bytes",
        "mwrepair.probes",
        "mwrepair.iterations",
        "apr.fitness_evals",
    ];
    for (name, plain) in names.into_iter().zip(verified.totals) {
        if get(&replay, name) != plain as f64 {
            out.failures.push(format!(
                "{name}: wrapped replay gave {} but the plain replay {plain}",
                get(&replay, name)
            ));
        }
    }

    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (name, _) in &per_rep[0] {
        let values: Vec<f64> = per_rep.iter().map(|v| get(v, name)).collect();
        let disk = get(&on_disk, name);
        if EXACT.contains(name) && values.iter().chain([disk].iter()).any(|v| *v != values[0]) {
            out.failures.push(format!(
                "{name} differs between traced repetitions: {values:?} in memory, {disk} on disk"
            ));
        }
        let value = if name.starts_with("vfs.") {
            disk
        } else {
            median(&values)
        };
        layers.push((name, value));
    }
    let setup_ms = get(&layers, "daemon.setup_ms");
    let traced_run_ms = get(&layers, "daemon.run_ms");
    layers.extend(setup.iter().copied());
    layers.extend(replay.iter().copied());
    layers.extend([
        (
            "daemon.admit_ms",
            setup_ms - get(&setup, "protocol.parse_ms") - get(&setup, "apr.precompute_ms"),
        ),
        (
            "bench.tracing_overhead_share",
            (traced_run_ms - untraced_run_ms) / untraced_run_ms,
        ),
        ("datasets.build_ms", 0.0),
        ("datasets.pull_ms", 0.0),
        ("exp.csv_ms", 0.0),
    ]);
    out.layers = layers;
    Ok(())
}

fn get(values: &[(&'static str, f64)], name: &str) -> f64 {
    values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1)
}

fn run_grid(args: &Args, out_dir: &Path, threads: usize) -> Result<Outcome, String> {
    let config = grid::config(args.seed);
    let csv_dir = out_dir.join(format!("grid-{}", std::process::id()));
    struct GridRep {
        setup_s: Vec<f64>,
        wall_s: f64,
        rss_mb: f64,
        replicates: u64,
        digest: u64,
        events: Option<Vec<mwu_core::trace::ReplicateEvent>>,
    }
    let (mut reps, steal_share) = measure(args.seconds, |i| {
        // Dataset generation takes milliseconds: sample it several times.
        let mut setup_s = Vec::new();
        let mut datasets = Vec::new();
        host::reset_peak_rss()?;
        for _ in 0..GRID_SETUP_SAMPLES {
            let t0 = Instant::now();
            datasets = grid::build_datasets();
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut collect = Collect::default();
        let t1 = Instant::now();
        let (cells, digest, _) = grid::pass(&datasets, &config, &mut collect, &csv_dir);
        let wall_s = t1.elapsed().as_secs_f64();
        Ok(GridRep {
            setup_s,
            wall_s,
            rss_mb: host::peak_rss_mb(),
            replicates: grid::tractable_replicates(&cells),
            digest,
            events: (i == 0).then_some(collect.0),
        })
    })?;
    let events = reps[0]
        .events
        .take()
        .expect("first repetition keeps events");
    let warm = &reps[WARMUP_REPS..];
    let peak_rss_mb = reps[0].rss_mb;
    eprintln!(
        "perfbench grid: pass ms {:.1?}",
        reps.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>()
    );
    let replicates = reps[0].replicates;
    let mut out = Outcome {
        reps: reps.len(),
        store_fs: host::fs_type(out_dir),
        steal_share,
        attempted: replicates * reps.len() as u64,
        counts: vec![
            ("grid.replicates".into(), replicates as f64),
            ("grid.csv_digest".into(), (reps[0].digest >> 12) as f64),
        ],
        ..Outcome::default()
    };
    for (i, r) in reps.iter().enumerate().skip(1) {
        if (r.replicates, r.digest) != (replicates, reps[0].digest) {
            out.failures.push(format!(
                "repetition {i}: CSV bytes differ from repetition 0"
            ));
            out.failed += replicates;
        }
    }
    let iterations: f64 = events.iter().map(|e| e.outcome.iterations as f64).sum();
    out.counts.push(("grid.iterations".into(), iterations));
    let mut checked = events.clone();
    if args.inject {
        if let Some(ev) = checked.first_mut() {
            ev.outcome.iterations += 1;
        }
    }
    let datasets = grid::build_datasets();
    let failures = grid::verify(&datasets, &config, &checked, replicates);
    drop(checked);
    out.failed += failures.len() as u64;
    out.failures.extend(failures);

    let setup_s = median(
        &reps
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect::<Vec<_>>(),
    );
    let wall_ms = median(&warm.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>());
    let per_s = median(
        &warm
            .iter()
            .map(|r| r.replicates as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    );
    out.e2e = vec![
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", per_s, "1/s"),
        ("latency_p50_ms", wall_ms, "ms"),
        ("latency_tail_ms", wall_ms, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    out.human = vec![
        ("setup_s".into(), setup_s, "s"),
        ("replicates_per_s".into(), per_s, "1/s"),
        ("grid_pass_ms".into(), wall_ms, "ms"),
        ("replicates_per_rep".into(), replicates as f64, "count"),
        (
            "failed_share".into(),
            out.failed as f64 / out.attempted as f64,
            "ratio",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ];

    if args.trace {
        spans::drain();
        let clock: Clock = Rc::default();
        let t0 = now_ns();
        let datasets = grid::build_datasets();
        let t1 = now_ns();
        spans::push("datasets.build", t0, t1, 0, "grid".into());
        let mut observer = TimedObserver::new(Collect::default(), Rc::clone(&clock));
        let cpu0 = host::process_cpu_ns();
        let (_, digest, csv_ns) = grid::pass(&datasets, &config, &mut observer, &csv_dir);
        let t2 = now_ns();
        let cpu_ns = host::process_cpu_ns()
            .saturating_sub(cpu0)
            .saturating_sub(csv_ns);
        let pass_id = spans::push("grid.pass", t1, t2, 0, "grid".into());
        let c = clock.borrow().clone();
        for (name, ns, n) in [
            ("trace.observer", c.observer_ns, c.observer_calls),
            ("exp.csv", csv_ns, 3),
        ] {
            spans::record(Span {
                id: spans::new_id(),
                name,
                start_ns: t1,
                end_ns: t1 + ns,
                parent: pass_id,
                req: "grid".into(),
                n,
                size: 0,
            });
        }
        if digest != reps[0].digest || observer.into_inner().0 != events {
            out.failures
                .push("traced grid pass: outputs differ from the untraced pass".into());
        }
        let grid_ns = (t2 - t1).saturating_sub(csv_ns) as f64;
        let mut layers = grid::replay_layers(&datasets, &events);
        if get(&layers, "core.rounds") != iterations {
            out.failures
                .push("replayed rounds differ from the grid's iterations".into());
        }
        layers.extend([
            ("datasets.build_ms", (t1 - t0) as f64 / 1e6),
            ("exp.csv_ms", csv_ns as f64 / 1e6),
            (
                "rayon.busy_share",
                cpu_ns as f64 / (grid_ns * threads as f64),
            ),
            (
                "rayon.idle_ms",
                (grid_ns * threads as f64 - cpu_ns as f64).max(0.0) / 1e6,
            ),
            (
                "bench.tracing_overhead_share",
                ((t2 - t1) as f64 / 1e6 - wall_ms) / wall_ms,
            ),
        ]);
        out.layers = layers;
        out.spans = spans::drain();
    }
    let _ = std::fs::remove_dir_all(&csv_dir);
    Ok(out)
}

fn record_path(args: &Args, out_dir: &Path) -> PathBuf {
    out_dir.join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

/// Exact counts of this run against the last clean record of the same
/// workload, seed and source: a seed-determined count that moved fails
/// the run. A record that lists failures is no reference.
fn check_counts_against_record(args: &Args, out_dir: &Path, source: &str, out: &mut Outcome) {
    for (name, value) in &out.layers {
        if EXACT.contains(name) {
            out.counts.push((name.to_string(), *value));
        }
    }
    let Ok(text) = std::fs::read_to_string(record_path(args, out_dir)) else {
        return;
    };
    let Ok(prev) = serde_json::from_str_value(&text) else {
        return;
    };
    let failed_before = prev
        .field("failures")
        .as_array()
        .is_none_or(|f| !f.is_empty());
    if prev.field("source_digest").as_str() != Some(source) || failed_before {
        return;
    }
    for (name, value) in &out.counts {
        let before = match prev.field("counts").field(name) {
            Value::Float(f) => *f,
            Value::UInt(n) => *n as f64,
            _ => continue,
        };
        if before != *value {
            out.failures.push(format!(
                "{name} = {value} but an earlier run of this seed recorded {before}"
            ));
        }
    }
}

/// Write the run record and, for traced runs, the spans. A run with an
/// injected mismatch leaves no record: its outputs are not the program's.
fn write_record(args: &Args, out_dir: &Path, threads: usize, source: &str, out: &Outcome) {
    if args.inject {
        return;
    }
    let num = |v: f64| Value::Float(v);
    let metrics = out
        .e2e
        .iter()
        .map(|(n, v, u)| (n.to_string(), (*v, *u)))
        .chain(
            out.layers
                .iter()
                .map(|(n, v)| (n.to_string(), (*v, unit_of(n)))),
        )
        .map(|(n, (v, u))| {
            let entry = Value::Object(vec![
                ("value".into(), num(v)),
                ("unit".into(), Value::Str(u.into())),
            ]);
            (n, entry)
        })
        .collect();
    let doc = Value::Object(vec![
        ("schema".into(), Value::Str("perfbench-record/v1".into())),
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("reps".into(), Value::UInt(out.reps as u64)),
        ("host_steal_share".into(), num(out.steal_share)),
        ("host".into(), record::host()),
        ("pool_threads".into(), Value::UInt(threads as u64)),
        ("store_fs".into(), Value::Str(out.store_fs.clone())),
        ("vfs_fs".into(), Value::Str(out.vfs_fs.clone())),
        (
            "build_profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("commit".into(), Value::Str(record::commit())),
        ("source_digest".into(), Value::Str(source.into())),
        (
            "counts".into(),
            Value::Object(
                out.counts
                    .iter()
                    .map(|(n, v)| (n.clone(), num(*v)))
                    .collect(),
            ),
        ),
        ("metrics".into(), Value::Object(metrics)),
        (
            "failures".into(),
            Value::Array(out.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
    ]);
    let _ = std::fs::write(
        record_path(args, out_dir),
        serde::json::to_string(&doc) + "\n",
    );
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let _ = spans::write_jsonl(&path, &out.spans);
    }
}

fn unit_of(name: &str) -> &'static str {
    LAYERS.iter().find(|l| l.0 == name).map_or("", |l| l.1)
}

fn report(args: &Args, threads: usize, out: &Outcome) {
    println!(
        "perfbench {} seed={} reps={} pool_threads={} nproc={} store={} host_steal_share={:.4}",
        args.workload,
        args.seed,
        out.reps,
        threads,
        host::nproc(),
        out.store_fs,
        out.steal_share
    );
    if !out.vfs_fs.is_empty() {
        println!("  vfs ledger from RealVfs on {}", out.vfs_fs);
    }
    for (name, value, unit) in &out.human {
        println!("  {name:<30} {value:>14.4} {unit}");
    }
    if args.trace {
        for (name, unit) in LAYERS {
            println!("  {name:<30} {:>14.4} {unit}", get(&out.layers, name));
        }
    }
    for f in out.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    let metrics: Vec<(String, Value)> = if args.trace {
        LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), get(&out.layers, n), *u))
            .map(|(n, v, u)| (n, metric(v, u)))
            .collect()
    } else {
        out.e2e
            .iter()
            .map(|(n, v, u)| (n.to_string(), metric(*v, u)))
            .collect()
    };
    let correct = out.failed == 0 && out.failures.is_empty();
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted)),
        (
            "failed".into(),
            Value::UInt(out.failed.max(u64::from(!correct))),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde::json::to_string(&doc));
}

fn metric(value: f64, unit: &str) -> Value {
    let value = if value.is_finite() { value } else { 0.0 };
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn compare(paths: &[String]) -> ! {
    let [a, b] = paths else { usage() };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| serde_json::from_str_value(&t).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("perfbench compare: {p}: {e}");
                exit(2)
            })
    };
    match record::compare(&load(a), &load(b)) {
        Ok(table) => {
            print!("{table}");
            exit(0)
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            exit(2)
        }
    }
}
