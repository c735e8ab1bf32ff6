//! `mwrepaird` — the multi-tenant repair daemon (crates/service) as a CLI.
//!
//! Drives every job in a work directory to completion in iteration-sliced
//! rounds across the rayon pool, crash-safe at each slice boundary:
//!
//! ```text
//! mwrepaird --work run/ --jobs batch.jsonl            # first run
//! mwrepaird --work run/ --halt-after 5                # cooperative kill
//! mwrepaird --work run/                               # resume from spool
//! ```
//!
//! Jobs arrive as JSONL (see `docs/SERVICE.md`) via `--jobs FILE` or
//! `--jobs -` (stdin); without `--jobs`, the daemon reloads the canonical
//! spool `<work>/jobs.jsonl` written by a previous run. The run summary
//! (the only wall-clock-bearing output) is printed to stdout as JSON.
//!
//! Flags: `--work DIR` (required), `--jobs FILE|-`, `--slice N` (update
//! cycles per session per round, default 16), `--halt-after ROUNDS` (stop
//! after that many rounds, leaving unfinished sessions checkpointed),
//! `--threads N`, `--trace-segment-bytes N` (rotate each session's trace
//! into size-capped `trace.NNN.jsonl` segments; concatenation stays
//! byte-identical to the single-file layout — see `docs/SERVICE.md`),
//! `--profile` (a switch: enable the phase profiler; the span report
//! lands in `<work>/metrics.json`), `--quiet`, and the three fault flags
//! below. Any other flag, or a value that does not parse, exits 2.
//! Exit codes: 2 usage, 1 protocol/session/I-O failure.
//!
//! Storage-fault injection (docs/FAULTS.md §5): `--fault-rate R` mounts the
//! work directory through a [`FaultVfs`] adversary instead of the real
//! filesystem, `--fault-class eio|mixed|torn|lies` picks the fault mix and
//! `--fault-seed N` keys the deterministic schedule. Sessions that exhaust
//! their retries are quarantined, never fatal: the daemon still exits 0 and
//! reports `sessions_quarantined` in the summary.

use mwrepair_service::{Daemon, DaemonConfig, FaultVfs, StorageFaultConfig, StorageFaultPlan};
use mwu_experiments::cli::{Args, Flag, QUIET, THREADS};
use std::io::Read;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::Arc;

const WORK: Flag = Flag::of::<PathBuf>("--work", "DIR", "work directory (required)");
const JOBS: Flag = Flag::of::<String>("--jobs", "FILE|-", "JSONL jobs to submit (- is stdin)");
const SLICE: Flag = Flag::of::<usize>("--slice", "N", "cycles per session per round (default 16)");
const HALT_AFTER: Flag = Flag::of::<u64>("--halt-after", "ROUNDS", "stop after ROUNDS rounds");
const SEGMENTS: Flag = Flag::of::<NonZeroU64>(
    "--trace-segment-bytes",
    "N",
    "rotate session traces into N-byte segments",
);
const PROFILE: Flag = Flag::switch("--profile", "write the phase profile into metrics.json");
const FAULT_RATE: Flag = Flag::of::<f64>(
    "--fault-rate",
    "R",
    "inject storage faults at rate R in [0, 1]",
);
const CLASS: Flag = Flag::of::<String>(
    "--fault-class",
    "CLASS",
    "eio | mixed | torn | lies (default mixed)",
);
const FAULT_SEED: Flag = Flag::of::<u64>("--fault-seed", "N", "fault-schedule seed (default 0)");

fn main() {
    let args = Args::from_env(
        "mwrepaird",
        &[
            WORK, JOBS, SLICE, HALT_AFTER, THREADS, SEGMENTS, PROFILE, QUIET, FAULT_RATE, CLASS,
            FAULT_SEED,
        ],
    );
    let work = args
        .get::<PathBuf>(&WORK)
        .unwrap_or_else(|| args.fail("--work DIR is required"));
    let fault_rate = args.get(&FAULT_RATE).unwrap_or(0.0);
    if !(0.0..=1.0).contains(&fault_rate) {
        args.fail(format_args!("--fault-rate {fault_rate}: must be in [0, 1]"));
    }
    let class = args.get(&CLASS).unwrap_or_else(|| String::from("mixed"));
    let faults = StorageFaultConfig::named(&class, fault_rate)
        .unwrap_or_else(|| args.fail("--fault-class must be eio | mixed | torn | lies"));
    // Read the batch before the work directory is touched, so an
    // unreadable --jobs exits 2 having written nothing.
    let jobs = args.get::<String>(&JOBS).map(|src| {
        let read = if src == "-" {
            let mut buf = Vec::new();
            std::io::stdin().read_to_end(&mut buf).map(|_| buf)
        } else {
            std::fs::read(&src)
        };
        read.unwrap_or_else(|e| args.fail(format_args!("reading {src:?}: {e}")))
    });
    if args.given(&PROFILE) {
        mwu_core::prof::set_enabled(true);
    }

    let mut config = DaemonConfig::new(work);
    config.slice_iterations = args.get(&SLICE).unwrap_or(16).max(1);
    config.halt_after_rounds = args.get(&HALT_AFTER);
    config.quiet = args.given(&QUIET);
    config.trace_segment_bytes = args.get(&SEGMENTS).map(NonZeroU64::get);
    if fault_rate > 0.0 {
        let seed = args.get(&FAULT_SEED).unwrap_or(0);
        // Rooted at the work directory: the same seed draws the same
        // fault schedule no matter where --work points.
        config.vfs = Arc::new(FaultVfs::rooted(
            StorageFaultPlan::new(seed, faults),
            &config.workdir,
        ));
        args.progress(format_args!(
            "mwrepaird: injecting {class} storage faults at rate {fault_rate} (seed {seed})"
        ));
    }
    let mut daemon = Daemon::open(config).unwrap_or_else(|e| {
        eprintln!("mwrepaird: {e}");
        std::process::exit(1);
    });
    if let Some(bytes) = jobs {
        match daemon.submit_bytes(&bytes) {
            Ok(n) => args.progress(format_args!(
                "mwrepaird: accepted {n} new jobs ({} total)",
                daemon.sessions().len()
            )),
            Err(e) => {
                eprintln!("mwrepaird: {e}");
                std::process::exit(1);
            }
        }
    }
    match daemon.run() {
        Ok(summary) => {
            if summary.sessions_quarantined > 0 {
                args.progress(format_args!(
                    "mwrepaird: {} session(s) quarantined; inspect quarantine.json and re-run \
                     to re-arm",
                    summary.sessions_quarantined
                ));
            }
            println!("{}", summary.to_json());
        }
        Err(e) => {
            eprintln!("mwrepaird: {e}");
            std::process::exit(1);
        }
    }
}
