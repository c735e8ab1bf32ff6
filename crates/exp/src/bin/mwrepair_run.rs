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
//! Extra flags (before the common ones): `--scenario SUBSTR` (catalog name
//! filter, default: first scenario), `--alg NAME`
//! (standard | slate | distributed, default standard), `--halt-after N`
//! (cooperatively stop after N update cycles — a deterministic stand-in
//! for `kill -9` in demos and CI), `--max-iterations N`.

use apr_sim::BugScenario;
use mwrepair::{
    effective_arms, repair_resumable, Checkpoint, CheckpointPolicy, MwRepairConfig, SessionControl,
    SessionResult, VariantChoice, Vfs,
};
use mwrepair_service::RealVfs;
use mwu_core::trace::Observer;
use mwu_core::{
    DistributedConfig, DistributedMwu, MwuAlgorithm, SlateConfig, SlateMwu, StandardConfig,
    StandardMwu,
};
use mwu_experiments::CommonArgs;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

#[allow(clippy::too_many_arguments)]
fn run_variant<A, O>(
    scenario: &BugScenario,
    pool: &apr_sim::MutationPool,
    mut alg: A,
    config: &MwRepairConfig,
    observer: &mut O,
    session: &SessionControl,
    resume: Option<&Checkpoint>,
) -> SessionResult
where
    A: MwuAlgorithm + Serialize + Deserialize,
    O: Observer,
{
    repair_resumable(
        scenario, pool, &mut alg, config, None, observer, session, resume,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn main() {
    // Peel binary-specific flags before the strict common parser.
    let mut scenario_filter: Option<String> = None;
    let mut alg_name = String::from("standard");
    let mut halt_after: Option<usize> = None;
    let mut max_iterations: usize = 10_000;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scenario" => scenario_filter = Some(take("--scenario")),
            "--alg" => alg_name = take("--alg"),
            "--halt-after" => {
                let v = take("--halt-after");
                halt_after = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("--halt-after {v:?}: {e}");
                    std::process::exit(2);
                }));
            }
            "--max-iterations" => {
                let v = take("--max-iterations");
                max_iterations = v.parse().unwrap_or_else(|e| {
                    eprintln!("--max-iterations {v:?}: {e}");
                    std::process::exit(2);
                });
            }
            other => rest.push(other.to_owned()),
        }
    }
    let args = match CommonArgs::parse(rest) {
        Ok(a) => {
            a.apply_parallelism();
            a.apply_profiling();
            a
        }
        Err(e) => {
            eprintln!(
                "{e}\nmwrepair_run extras: --scenario SUBSTR | --alg NAME | --halt-after N | \
                 --max-iterations N"
            );
            std::process::exit(2);
        }
    };
    let variant = VariantChoice::parse(&alg_name).unwrap_or_else(|| {
        eprintln!("--alg must be standard | slate | distributed (got {alg_name:?})");
        std::process::exit(2);
    });

    let scenarios = BugScenario::catalog_all();
    let scenario = match &scenario_filter {
        Some(f) => scenarios
            .iter()
            .find(|s| s.name.contains(f.as_str()))
            .unwrap_or_else(|| {
                eprintln!("no catalog scenario matches {f:?}");
                std::process::exit(2);
            }),
        None => &scenarios[0],
    };

    let mut config = MwRepairConfig::seeded(args.seed);
    config.max_iterations = max_iterations;
    let pool = scenario.build_pool(args.seed, None);
    let arms = effective_arms(pool.len(), &config);

    // Startup sweep: a crash between save_atomic's tmp write and rename
    // strands a torn `<path>.tmp`; remove it before resuming (and before
    // the first save) so it can never shadow the real checkpoint.
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    for p in args.resume.iter().chain(args.checkpoint.iter()) {
        match Checkpoint::sweep_orphan_tmp(vfs.as_ref(), p) {
            Ok(true) if !args.quiet => {
                eprintln!("removed orphaned {}.tmp from a crashed save", p.display());
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("cannot sweep {}.tmp: {e}", p.display());
                std::process::exit(1);
            }
        }
    }
    let resume = args.resume.as_deref().map(|p| {
        Checkpoint::load(vfs.as_ref(), p).unwrap_or_else(|e| {
            eprintln!("cannot resume from {}: {e}", p.display());
            std::process::exit(1);
        })
    });
    let session = SessionControl {
        checkpoint: args
            .checkpoint
            .as_deref()
            .map(|p| CheckpointPolicy::new(Arc::clone(&vfs), p, args.checkpoint_every)),
        halt_after_iterations: halt_after,
    };
    if !args.quiet {
        eprintln!(
            "scenario {} (k = {arms}), {} MWU, seed {}{}",
            scenario.name,
            alg_name,
            args.seed,
            match resume.as_ref() {
                Some(ck) => format!(", resuming at iteration {}", ck.iteration),
                None => String::new(),
            }
        );
    }

    let mut observer = args.observer();
    let result = match variant {
        VariantChoice::Standard => run_variant(
            scenario,
            &pool,
            StandardMwu::new(arms, StandardConfig::default()),
            &config,
            &mut observer,
            &session,
            resume.as_ref(),
        ),
        VariantChoice::Slate => run_variant(
            scenario,
            &pool,
            SlateMwu::new(arms, SlateConfig::default()),
            &config,
            &mut observer,
            &session,
            resume.as_ref(),
        ),
        VariantChoice::Distributed => run_variant(
            scenario,
            &pool,
            DistributedMwu::try_new(arms, DistributedConfig::default()).unwrap_or_else(|e| {
                eprintln!("distributed intractable at k = {arms}: {e:?}");
                std::process::exit(1);
            }),
            &config,
            &mut observer,
            &session,
            resume.as_ref(),
        ),
    };

    match result {
        SessionResult::Complete(outcome) => {
            println!(
                "{}",
                serde_json::to_string(&outcome).expect("outcome serializes")
            );
        }
        SessionResult::Halted { checkpoint } => {
            if let Some(p) = &args.checkpoint {
                println!(
                    "halted at iteration {} ({} probes); resume with --resume {}",
                    checkpoint.iteration,
                    checkpoint.probes,
                    p.display()
                );
            } else {
                println!(
                    "halted at iteration {} ({} probes); no --checkpoint path given, state lost",
                    checkpoint.iteration, checkpoint.probes
                );
            }
        }
    }
    args.write_profile();
}
