//! Single-scenario MWRepair run with crash-safe checkpoint / resume.
//!
//! Runs the online phase on one catalog bug scenario and prints the
//! outcome. The resumable driver makes the run kill-tolerant:
//!
//! ```text
//! mwrepair_run --scenario Chart --checkpoint run.ckpt      # killed mid-run
//! mwrepair_run --scenario Chart --resume run.ckpt \
//!              --checkpoint run.ckpt                       # continues
//! ```
//!
//! A resumed run finishes with *exactly* the outcome the uninterrupted
//! same-seed run would have produced (same repair, same probe count, same
//! cost) — the checkpoint carries the MWU weights, master-RNG state and
//! absolute counters, and per-probe randomness is keyed by
//! `(seed, iteration, agent)`.
//!
//! Flags: `--scenario SUBSTR` (catalog name filter, default: first
//! scenario), `--alg NAME` (standard | slate | distributed, default
//! standard), `--halt-after N` (cooperatively stop after N update cycles —
//! a deterministic stand-in for `kill -9` in demos and CI),
//! `--max-iterations N` (default 10 000), `--seed S`, `--trace PATH`,
//! `--checkpoint PATH`, `--resume PATH`, `--checkpoint-every N` (probes
//! between checkpoint writes, default 512), `--threads N`, `--profile PATH`
//! and `--quiet`. Any other flag exits 2; the outcome goes to stdout, so
//! there is no `--out`.

use apr_sim::{BugScenario, MutationPool};
use mwrepair::{
    effective_arms, repair_resumable, Checkpoint, CheckpointPolicy, MwRepairConfig, SessionControl,
    SessionResult, VariantChoice, Vfs,
};
use mwrepair_service::RealVfs;
use mwu_core::trace::Observer;
use mwu_core::{DistributedMwu, MwuAlgorithm, SlateConfig, SlateMwu, StandardConfig, StandardMwu};
use mwu_experiments::cli::{
    Args, Flag, CHECKPOINT, CHECKPOINT_EVERY, PROFILE, QUIET, RESUME, SEED, THREADS, TRACE,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Everything one run needs but its algorithm.
struct Run<'a, O> {
    scenario: &'a BugScenario,
    pool: &'a MutationPool,
    config: &'a MwRepairConfig,
    observer: &'a mut O,
    session: &'a SessionControl,
    resume: Option<&'a Checkpoint>,
}

impl<O: Observer> Run<'_, O> {
    fn with<A: MwuAlgorithm + Serialize + Deserialize>(self, mut alg: A) -> SessionResult {
        let (scenario, pool, config) = (self.scenario, self.pool, self.config);
        repair_resumable(
            scenario,
            pool,
            &mut alg,
            config,
            None,
            self.observer,
            self.session,
            self.resume,
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
    }
}

const SCENARIO: Flag = Flag::of::<String>("--scenario", "SUBSTR", "first catalog match");
const ALG: Flag = Flag::of::<String>("--alg", "NAME", "standard | slate | distributed");
const HALT_AFTER: Flag = Flag::of::<usize>("--halt-after", "N", "stop after N update cycles");
const MAX_ITERS: Flag = Flag::of::<usize>("--max-iterations", "N", "cap (default 10000)");

fn main() {
    let args = Args::from_env(
        "mwrepair_run",
        &[
            SCENARIO,
            ALG,
            HALT_AFTER,
            MAX_ITERS,
            SEED,
            TRACE,
            CHECKPOINT,
            RESUME,
            CHECKPOINT_EVERY,
            THREADS,
            PROFILE,
            QUIET,
        ],
    );
    let alg_name = args.get(&ALG).unwrap_or_else(|| String::from("standard"));
    let variant = VariantChoice::parse(&alg_name)
        .unwrap_or_else(|| args.fail("--alg must be standard | slate | distributed"));
    let checkpoint_path = args.get::<PathBuf>(&CHECKPOINT);
    let resume_path = args.get::<PathBuf>(&RESUME);
    let seed = args.seed();

    let scenarios = BugScenario::catalog_all();
    let scenario = match args.get::<String>(&SCENARIO) {
        Some(f) => scenarios
            .iter()
            .find(|s| s.name.contains(f.as_str()))
            .unwrap_or_else(|| args.fail(format_args!("no catalog scenario matches {f:?}"))),
        None => &scenarios[0],
    };

    let mut config = MwRepairConfig::seeded(seed);
    config.max_iterations = args.get(&MAX_ITERS).unwrap_or(10_000);
    let pool = scenario.build_pool(seed, None);
    let arms = effective_arms(pool.len(), &config);

    // Startup sweep: a crash between save_atomic's tmp write and rename
    // strands a torn `<path>.tmp`; remove it before resuming (and before
    // the first save) so it can never shadow the real checkpoint.
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    for p in resume_path.iter().chain(checkpoint_path.iter()) {
        match Checkpoint::sweep_orphan_tmp(vfs.as_ref(), p) {
            Ok(true) => args.progress(format_args!(
                "removed orphaned {}.tmp from a crashed save",
                p.display()
            )),
            Ok(false) => {}
            Err(e) => {
                eprintln!("cannot sweep {}.tmp: {e}", p.display());
                std::process::exit(1);
            }
        }
    }
    let resume = resume_path.as_deref().map(|p| {
        Checkpoint::load(vfs.as_ref(), p).unwrap_or_else(|e| {
            eprintln!("cannot resume from {}: {e}", p.display());
            std::process::exit(1);
        })
    });
    let session = SessionControl {
        checkpoint: checkpoint_path.as_deref().map(|p| {
            let every = args.get(&CHECKPOINT_EVERY).unwrap_or(512);
            CheckpointPolicy::new(Arc::clone(&vfs), p, every)
        }),
        halt_after_iterations: args.get(&HALT_AFTER),
    };
    let resuming = resume.as_ref().map_or(String::new(), |ck| {
        format!(", resuming at iteration {}", ck.iteration)
    });
    let name = &scenario.name;
    args.progress(format_args!(
        "scenario {name} (k = {arms}), {alg_name} MWU, seed {seed}{resuming}"
    ));

    let mut observer = args.observer();
    let run = Run {
        scenario,
        pool: &pool,
        config: &config,
        observer: &mut observer,
        session: &session,
        resume: resume.as_ref(),
    };
    let result = match variant {
        VariantChoice::Standard => run.with(StandardMwu::new(arms, StandardConfig::default())),
        VariantChoice::Slate => run.with(SlateMwu::new(arms, SlateConfig::default())),
        VariantChoice::Distributed => match DistributedMwu::try_new(arms, Default::default()) {
            Ok(alg) => run.with(alg),
            Err(e) => {
                eprintln!("distributed intractable at k = {arms}: {e:?}");
                std::process::exit(1);
            }
        },
    };
    if let Some(sink) = observer.0.as_mut() {
        sink.flush().expect("flush trace");
    }

    match result {
        SessionResult::Complete(outcome) => {
            println!(
                "{}",
                serde_json::to_string(&outcome).expect("outcome serializes")
            );
        }
        SessionResult::Halted { checkpoint: ck } => {
            let next = match &checkpoint_path {
                Some(p) => format!("resume with --resume {}", p.display()),
                None => String::from("no --checkpoint path given, state lost"),
            };
            println!(
                "halted at iteration {} ({} probes); {next}",
                ck.iteration, ck.probes
            );
        }
    }
    args.write_profile();
}
