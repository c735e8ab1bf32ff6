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
//! cycles per session per round, default 16), `--halt-after N` (stop after
//! N rounds, leaving unfinished sessions checkpointed), `--threads N`,
//! `--trace-segment-bytes N` (rotate each session's trace into size-capped
//! `trace.NNN.jsonl` segments; concatenation stays byte-identical to the
//! single-file layout — see `docs/SERVICE.md`), `--profile` (enable the
//! phase profiler; the span report lands in `<work>/metrics.json`),
//! `--quiet`.
//! Exit codes: 2 usage, 1 protocol/session/I-O failure.
//!
//! Storage-fault injection (docs/FAULTS.md §5): `--fault-rate R` mounts the
//! work directory through a [`FaultVfs`] adversary instead of the real
//! filesystem, `--fault-class eio|mixed|torn|lies` picks the fault mix and
//! `--fault-seed N` keys the deterministic schedule. Sessions that exhaust
//! their retries are quarantined, never fatal: the daemon still exits 0 and
//! reports `sessions_quarantined` in the summary.

use mwrepair_service::{Daemon, DaemonConfig, FaultVfs, StorageFaultConfig, StorageFaultPlan};
use std::io::Read;
use std::path::PathBuf;
use std::sync::Arc;

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: mwrepaird --work DIR [--jobs FILE|-] [--slice N] [--halt-after ROUNDS] \
         [--threads N] [--trace-segment-bytes N] [--profile] [--quiet] \
         [--fault-rate R] [--fault-class eio|mixed|torn|lies] [--fault-seed N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} {v:?}: not a valid number")))
}

fn main() {
    let mut work: Option<PathBuf> = None;
    let mut jobs: Option<String> = None;
    let mut slice: usize = 16;
    let mut halt_after: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut quiet = false;
    let mut trace_segment_bytes: Option<u64> = None;
    let mut profile = false;
    let mut fault_rate: f64 = 0.0;
    let mut fault_class = String::from("mixed");
    let mut fault_seed: u64 = 0;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--work" => work = Some(PathBuf::from(take("--work"))),
            "--jobs" => jobs = Some(take("--jobs")),
            "--slice" => slice = parse_num("--slice", &take("--slice")),
            "--halt-after" => halt_after = Some(parse_num("--halt-after", &take("--halt-after"))),
            "--threads" => threads = Some(parse_num("--threads", &take("--threads"))),
            "--trace-segment-bytes" => {
                trace_segment_bytes = Some(parse_num(
                    "--trace-segment-bytes",
                    &take("--trace-segment-bytes"),
                ))
            }
            "--profile" => profile = true,
            "--quiet" => quiet = true,
            "--fault-rate" => fault_rate = parse_num("--fault-rate", &take("--fault-rate")),
            "--fault-class" => fault_class = take("--fault-class"),
            "--fault-seed" => fault_seed = parse_num("--fault-seed", &take("--fault-seed")),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let work = work.unwrap_or_else(|| usage("--work DIR is required"));
    if let Some(n) = threads {
        rayon::set_num_threads(n.max(1));
    }

    if profile {
        mwu_core::prof::set_enabled(true);
    }

    let mut config = DaemonConfig::new(work);
    config.slice_iterations = slice.max(1);
    config.halt_after_rounds = halt_after;
    config.quiet = quiet;
    if let Some(cap) = trace_segment_bytes {
        if cap == 0 {
            usage("--trace-segment-bytes must be positive");
        }
        config.trace_segment_bytes = Some(cap);
    }
    if !(0.0..=1.0).contains(&fault_rate) {
        usage(&format!("--fault-rate {fault_rate}: must be in [0, 1]"));
    }
    if fault_rate > 0.0 {
        let faults = match fault_class.as_str() {
            "eio" => StorageFaultConfig::eio(fault_rate),
            "mixed" => StorageFaultConfig::mixed(fault_rate),
            "torn" => StorageFaultConfig::torn(fault_rate),
            "lies" => StorageFaultConfig::lies(fault_rate),
            other => usage(&format!(
                "--fault-class must be eio | mixed | torn | lies (got {other:?})"
            )),
        };
        // Rooted at the work directory: the same seed draws the same
        // fault schedule no matter where --work points.
        config.vfs = Arc::new(FaultVfs::rooted(
            StorageFaultPlan::new(fault_seed, faults),
            &config.workdir,
        ));
        if !quiet {
            eprintln!(
                "mwrepaird: injecting {fault_class} storage faults at rate {fault_rate} \
                 (seed {fault_seed})"
            );
        }
    }
    let mut daemon = Daemon::open(config).unwrap_or_else(|e| {
        eprintln!("mwrepaird: {e}");
        std::process::exit(1);
    });
    if let Some(src) = jobs {
        let bytes = if src == "-" {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .unwrap_or_else(|e| usage(&format!("reading stdin: {e}")));
            buf
        } else {
            std::fs::read(&src).unwrap_or_else(|e| usage(&format!("reading {src:?}: {e}")))
        };
        match daemon.submit_bytes(&bytes) {
            Ok(n) => {
                if !quiet {
                    eprintln!(
                        "mwrepaird: accepted {n} new jobs ({} total)",
                        daemon.sessions().len()
                    );
                }
            }
            Err(e) => {
                eprintln!("mwrepaird: {e}");
                std::process::exit(1);
            }
        }
    }
    match daemon.run() {
        Ok(summary) => {
            if !quiet && summary.sessions_quarantined > 0 {
                eprintln!(
                    "mwrepaird: {} session(s) quarantined; inspect quarantine.json and re-run \
                     to re-arm",
                    summary.sessions_quarantined
                );
            }
            println!("{}", summary.to_json());
        }
        Err(e) => {
            eprintln!("mwrepaird: {e}");
            std::process::exit(1);
        }
    }
}
