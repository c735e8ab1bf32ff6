//! Fault-injection and crash-safety integration tests.
//!
//! Covers the robustness contract end to end:
//!
//! * same seed + same `FaultPlan` ⇒ byte-identical JSONL telemetry traces;
//! * a killed-and-resumed MWRepair run reports exactly the outcome of the
//!   uninterrupted same-seed run (checkpoint through a real file);
//! * checkpoint writes through a hostile `FaultVfs` (torn, EIO, lying
//!   fsync) either finish with the uninterrupted outcome or stop with an
//!   I/O error — never a panic, never a partial file in place of a good
//!   checkpoint — and a swept resume on the real disk reproduces the run;
//! * Distributed MWU still converges on a unimodal instance with ≤ 10 %
//!   message drops flowing through the degradation-aware gossip update;
//! * property tests: weights stay on the finite simplex under arbitrary
//!   drop / duplicate / corruption sequences.

use apr_sim::ledger::CostSnapshot;
use apr_sim::{BugScenario, MutationPool, ScenarioKind};
use bytes::Bytes;
use mwrepair::vfs::tmp_path;
use mwrepair::{
    effective_arms, repair, repair_resumable, Checkpoint, CheckpointError, CheckpointPolicy,
    MwRepairConfig, RepairOutcome, SessionControl, SessionResult,
};
use mwrepair_service::{FaultVfs, RealVfs, StorageFaultConfig, StorageFaultPlan, Vfs};
use mwu_core::prelude::*;
use mwu_core::trace::FaultEvent;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::{Context, FaultConfig, FaultPlan, MessageFate, Network, RetryPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A gossiping agent workload under a mixed fault plan; returns the JSONL
/// bytes of the run's per-round fault telemetry.
fn faulty_net_trace(seed: u64, rounds: usize) -> Vec<u8> {
    let mut net = Network::new(6, seed);
    net.set_faults(FaultPlan::new(seed ^ 0xFA, FaultConfig::mixed(0.15)));
    net.set_retry(RetryPolicy::default());
    for _ in 0..6 {
        net.add_agent(|ctx: &mut Context<'_>| {
            use rand::Rng;
            let n = ctx.n_agents();
            let to = ctx.rng().gen_range(0..n);
            if to != ctx.id() {
                ctx.send(to, Bytes::from_static(b"gossip"));
            }
        });
    }
    let mut sink = JsonlSink::new(Vec::new());
    for _ in 0..rounds {
        let rs = net.step();
        sink.on_faults(FaultEvent {
            round: rs.round,
            dropped: rs.faults.dropped,
            delayed: rs.faults.delayed,
            duplicated: rs.faults.duplicated,
            reordered: rs.faults.reordered,
            crashed: rs.faults.crashed,
            lost_to_crash: rs.faults.lost_to_crash,
            retried: rs.faults.retried,
            retry_exhausted: rs.faults.retry_exhausted,
            stragglers: rs.faults.stragglers,
        });
    }
    sink.into_inner()
}

#[test]
fn same_seed_same_plan_gives_byte_identical_jsonl_traces() {
    let a = faulty_net_trace(77, 50);
    let b = faulty_net_trace(77, 50);
    assert!(!a.is_empty());
    assert_eq!(a, b, "fault telemetry must be bit-deterministic");
    // And the trace really records injected faults, not all-zero rows.
    let text = String::from_utf8(a).unwrap();
    assert!(text.contains("\"Faults\""));
    let c = faulty_net_trace(78, 50);
    assert_ne!(
        text.as_bytes(),
        c.as_slice(),
        "different seed, different trace"
    );
}

#[test]
fn killed_and_resumed_repair_matches_uninterrupted_run() {
    // Repair-free scenario: the run spans the whole horizon, so the kill
    // point sits strictly inside the learning trajectory.
    let scenario = BugScenario::custom(
        "chaos-resume",
        ScenarioKind::Synthetic,
        60,
        12,
        300,
        15,
        0.0,
        41,
    );
    let pool = scenario.build_pool(1, None);
    let config = MwRepairConfig {
        max_iterations: 80,
        seed: 23,
        reward: mwrepair::RewardMode::DensityProxy,
        max_composition: 512,
    };
    let arms = effective_arms(pool.len(), &config);

    let mut alg = StandardMwu::new(arms, StandardConfig::default());
    let uninterrupted = repair(&scenario, &pool, &mut alg, &config);

    // Checkpoint into a *nested* directory so the durable write path
    // (tmp + fsync + rename + parent-directory fsync) runs against the
    // deepest parent, not the temp root.
    let dir = std::env::temp_dir().join(format!("faults-it-{}", std::process::id()));
    let ckpt_dir = dir.join("ckpts").join("run-a");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let ckpt_path = ckpt_dir.join("repair.ckpt");

    // Session 1: checkpoint every 64 probes, "killed" after 30 cycles.
    let mut alg1 = StandardMwu::new(arms, StandardConfig::default());
    let halted = repair_resumable(
        &scenario,
        &pool,
        &mut alg1,
        &config,
        None,
        &mut NullObserver,
        &SessionControl {
            checkpoint: Some(CheckpointPolicy::new(Arc::new(RealVfs), &ckpt_path, 64)),
            halt_after_iterations: Some(30),
        },
        None,
    )
    .unwrap();
    assert!(matches!(halted, SessionResult::Halted { .. }));

    // The "kill" leaves a durable, complete checkpoint and nothing else:
    // in particular no `.tmp` staging file that a crash mid-write could
    // have stranded.
    let leftovers: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(leftovers, vec!["repair.ckpt"], "only the checkpoint itself");

    // Session 2: resume purely from the file, run to completion.
    let ck = Checkpoint::load(&RealVfs, &ckpt_path).unwrap();
    assert_eq!(ck.iteration, 30);
    let mut alg2 = StandardMwu::new(arms, StandardConfig::default());
    let resumed = repair_resumable(
        &scenario,
        &pool,
        &mut alg2,
        &config,
        None,
        &mut NullObserver,
        &SessionControl::default(),
        Some(&ck),
    )
    .unwrap()
    .outcome()
    .expect("resumed session runs to completion");

    assert_eq!(resumed, uninterrupted);
    // Byte-identity of the reported outcome, not just structural equality.
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        serde_json::to_string(&uninterrupted).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Checkpoint files through the Vfs: the real disk, then a hostile one.
// ---------------------------------------------------------------------------

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faults-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_checkpoint() -> Checkpoint {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut alg = StandardMwu::new(8, StandardConfig::default());
    for _ in 0..5 {
        use rand::Rng;
        let n = alg.plan(&mut rng).len();
        let rewards: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        alg.update(&rewards, &mut rng);
    }
    Checkpoint::capture(
        &alg,
        &MwRepairConfig::seeded(7),
        5,
        40,
        &rng,
        CostSnapshot {
            fitness_evals: 40,
            simulated_ms: 4000,
            critical_path_ms: 500,
        },
        false,
    )
}

#[test]
fn save_atomic_writes_complete_file_and_cleans_tmp() {
    let dir = ckpt_dir("save");
    let path = dir.join("run.ckpt");
    let ck = sample_checkpoint();
    ck.save_atomic(&RealVfs, &path).unwrap();
    assert!(!tmp_path(&path).exists(), "tmp file must be renamed away");
    assert_eq!(Checkpoint::load(&RealVfs, &path).unwrap(), ck);
    // Overwrite with a later checkpoint; reader sees the new state.
    let mut ck2 = ck.clone();
    ck2.iteration = 6;
    ck2.save_atomic(&RealVfs, &path).unwrap();
    assert_eq!(Checkpoint::load(&RealVfs, &path).unwrap().iteration, 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_atomic_syncs_parent_of_nested_paths() {
    // Nested directory: the directory fsync targets the deepest parent,
    // not the temp root.
    let dir = ckpt_dir("nested");
    let nested = dir.join("a").join("b");
    std::fs::create_dir_all(&nested).unwrap();
    let ck = sample_checkpoint();
    let path = nested.join("run.ckpt");
    ck.save_atomic(&RealVfs, &path).unwrap();
    assert!(!tmp_path(&path).exists());
    assert_eq!(Checkpoint::load(&RealVfs, &path).unwrap(), ck);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_tmp_never_shadows_or_corrupts_a_resume() {
    let dir = ckpt_dir("sweep");
    let path = dir.join("run.ckpt");
    let ck = sample_checkpoint();
    ck.save_atomic(&RealVfs, &path).unwrap();

    // A crash mid-save strands a torn tmp beside the good checkpoint.
    let json = ck.to_json();
    std::fs::write(tmp_path(&path), &json.as_bytes()[..json.len() / 3]).unwrap();

    assert!(
        Checkpoint::sweep_orphan_tmp(&RealVfs, &path).unwrap(),
        "orphan missed"
    );
    assert!(!tmp_path(&path).exists());
    assert_eq!(
        Checkpoint::load(&RealVfs, &path).unwrap(),
        ck,
        "resume corrupted"
    );

    // Sweeping again is a no-op, and a fresh save still round-trips.
    assert!(!Checkpoint::sweep_orphan_tmp(&RealVfs, &path).unwrap());
    let mut ck2 = ck.clone();
    ck2.iteration += 1;
    ck2.save_atomic(&RealVfs, &path).unwrap();
    assert_eq!(Checkpoint::load(&RealVfs, &path).unwrap(), ck2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A repair-free scenario (the run spans its whole horizon) and its
/// uninterrupted outcome.
fn resume_fixture(
    name: &str,
    world_seed: u64,
    config: &MwRepairConfig,
) -> (BugScenario, MutationPool, usize, RepairOutcome) {
    let scenario = BugScenario::custom(
        name,
        ScenarioKind::Synthetic,
        60,
        12,
        300,
        15,
        0.0,
        world_seed,
    );
    let pool = scenario.build_pool(1, None);
    let arms = effective_arms(pool.len(), config);
    let mut alg = SlateMwu::new(arms, SlateConfig::default());
    let uninterrupted = repair(&scenario, &pool, &mut alg, config);
    (scenario, pool, arms, uninterrupted)
}

#[test]
fn resume_via_checkpoint_file_round_trip() {
    let cfg = MwRepairConfig {
        max_iterations: 30,
        seed: 3,
        reward: mwrepair::RewardMode::DensityProxy,
        max_composition: 512,
    };
    let (s, pool, arms, uninterrupted) = resume_fixture("resume-io", 33, &cfg);
    let dir = ckpt_dir("resume-io");
    let path = dir.join("grid.ckpt");

    // Checkpoint to disk every 8 probes; halt after 2 iterations.
    let mut alg1 = SlateMwu::new(arms, SlateConfig::default());
    let session = SessionControl {
        checkpoint: Some(CheckpointPolicy::new(Arc::new(RealVfs), &path, 8)),
        halt_after_iterations: Some(2),
    };
    let halted = repair_resumable(
        &s,
        &pool,
        &mut alg1,
        &cfg,
        None,
        &mut NullObserver,
        &session,
        None,
    )
    .unwrap();
    assert!(matches!(halted, SessionResult::Halted { .. }));

    // Resume purely from the file, as the binaries do.
    let ck = Checkpoint::load(&RealVfs, &path).unwrap();
    let mut alg2 = SlateMwu::new(arms, SlateConfig::default());
    let resumed = repair_resumable(
        &s,
        &pool,
        &mut alg2,
        &cfg,
        None,
        &mut NullObserver,
        &SessionControl::default(),
        Some(&ck),
    )
    .unwrap()
    .outcome()
    .unwrap();

    assert_eq!(resumed, uninterrupted);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `repair_resumable` to completion from `resume`, checkpointing
/// every update cycle to `path` through `vfs`.
fn run_checkpointed(
    fixture: &(BugScenario, MutationPool, usize, RepairOutcome),
    cfg: &MwRepairConfig,
    vfs: Arc<dyn Vfs>,
    path: &Path,
    resume: Option<&Checkpoint>,
) -> Result<SessionResult, CheckpointError> {
    let (scenario, pool, arms, _) = fixture;
    let mut alg = SlateMwu::new(*arms, SlateConfig::default());
    repair_resumable(
        scenario,
        pool,
        &mut alg,
        cfg,
        None,
        &mut NullObserver,
        &SessionControl {
            checkpoint: Some(CheckpointPolicy::new(vfs, path, 0)),
            halt_after_iterations: None,
        },
        resume,
    )
}

/// The checkpoint path under a hostile disk. Every run checkpoints after
/// each update cycle through a `FaultVfs` drawing torn tmp writes, EIO,
/// or a lying fsync that then kills the device. Each run must either
/// finish with the uninterrupted outcome or stop with
/// `CheckpointError::Io` — never panic, and never leave anything but a
/// complete checkpoint at the checkpoint path. Sweeping the orphaned tmp
/// and resuming on the real disk then reproduces the uninterrupted run.
#[test]
fn checkpoint_writes_survive_a_hostile_disk() {
    let cfg = MwRepairConfig {
        max_iterations: 40,
        seed: 29,
        reward: mwrepair::RewardMode::DensityProxy,
        max_composition: 512,
    };
    let fixture = resume_fixture("hostile-ckpt", 43, &cfg);
    let uninterrupted = &fixture.3;
    let (mut completed, mut failed, mut injected) = (0, 0, 0);
    for (class, faults) in [
        ("torn", StorageFaultConfig::torn(0.03)),
        ("eio", StorageFaultConfig::eio(0.03)),
        ("lies", StorageFaultConfig::lies(0.03)),
    ] {
        for seed in 0..4u64 {
            let dir = ckpt_dir(&format!("hostile-{class}-{seed}"));
            let path = dir.join("run.ckpt");
            let vfs = Arc::new(FaultVfs::rooted(StorageFaultPlan::new(seed, faults), &dir));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_checkpointed(
                    &fixture,
                    &cfg,
                    Arc::clone(&vfs) as Arc<dyn Vfs>,
                    &path,
                    None,
                )
            }))
            .unwrap_or_else(|_| panic!("{class} seed {seed}: a hostile disk panicked the run"));
            match run {
                Ok(SessionResult::Complete(outcome)) => {
                    assert_eq!(&outcome, uninterrupted, "{class} seed {seed}");
                    completed += 1;
                }
                Ok(SessionResult::Halted { .. }) => panic!("{class} seed {seed}: no halt asked"),
                Err(CheckpointError::Io(_)) => failed += 1,
                Err(e) => panic!("{class} seed {seed}: unexpected error {e}"),
            }
            injected += vfs.injected_faults();

            // Whatever sits at the checkpoint path is a whole checkpoint.
            let kept = path
                .exists()
                .then(|| Checkpoint::load(&RealVfs, &path))
                .transpose()
                .unwrap_or_else(|e| panic!("{class} seed {seed}: partial checkpoint: {e}"));
            // A torn tmp write is the only fault that strands an orphan.
            let swept = Checkpoint::sweep_orphan_tmp(&RealVfs, &path).unwrap();
            assert!(!swept || class == "torn", "{class} seed {seed}: stray tmp");
            assert!(!tmp_path(&path).exists());

            let resumed = run_checkpointed(&fixture, &cfg, Arc::new(RealVfs), &path, kept.as_ref())
                .unwrap()
                .outcome()
                .expect("resumed run completes");
            assert_eq!(&resumed, uninterrupted, "{class} seed {seed}: resume");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(injected > 0, "the adversary never fired");
    assert!(
        completed > 0 && failed > 0,
        "{completed} completed, {failed} failed"
    );
}

/// Feed one gossip round through the degraded-observation path: drops
/// become missing observations, delays become staleness, duplicates arrive
/// twice.
fn degraded_gossip_round(
    alg: &mut DistributedMwu,
    bandit: &mut ValueBandit,
    plan: &FaultPlan,
    gossip: &GossipConfig,
    t: usize,
    rng: &mut SmallRng,
) {
    let planned = alg.plan(rng).to_vec();
    let mut obs = Vec::with_capacity(planned.len());
    for (agent, &arm) in planned.iter().enumerate() {
        let reward = bandit.pull(arm, rng);
        match plan.message_fate(t, agent, 0, agent as u64, 1) {
            MessageFate::Drop => {}
            MessageFate::Deliver => obs.push(GossipObservation::fresh(agent, reward)),
            MessageFate::Delay(d) => obs.push(GossipObservation {
                agent,
                reward,
                staleness: d,
            }),
            MessageFate::Duplicate => {
                obs.push(GossipObservation::fresh(agent, reward));
                obs.push(GossipObservation::fresh(agent, reward));
            }
        }
    }
    alg.update_gossip(&obs, gossip, rng);
}

#[test]
fn distributed_converges_on_unimodal_with_ten_percent_drops() {
    let k = 16;
    let values = mwu_datasets::unimodal::generate(k, 9);
    let best = values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    let gossip = GossipConfig::default();
    let mut converged_runs = 0;
    let mut accurate_runs = 0;
    const RUNS: usize = 5;
    for seed in 0..RUNS as u64 {
        let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
        let mut bandit = ValueBandit::bernoulli(values.clone());
        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let plan = FaultPlan::new(200 + seed, FaultConfig::drops(0.10));
        for t in 0..3000 {
            degraded_gossip_round(&mut alg, &mut bandit, &plan, &gossip, t, &mut rng);
            let probs = alg.probabilities();
            assert!(probs.iter().all(|p| p.is_finite()));
            if alg.has_converged() {
                break;
            }
        }
        if alg.has_converged() {
            converged_runs += 1;
            // Converging near the optimum (within a small neighborhood of
            // the unimodal peak) counts as accurate.
            if alg.leader().abs_diff(best) <= 2 {
                accurate_runs += 1;
            }
        }
    }
    assert_eq!(
        converged_runs, RUNS,
        "10% drops must not prevent convergence"
    );
    assert!(
        accurate_runs * 2 >= RUNS,
        "most runs should land near the unimodal peak ({accurate_runs}/{RUNS})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Standard MWU: arbitrary per-agent drop/corrupt patterns keep the
    // weight vector a finite probability distribution.
    #[test]
    fn standard_simplex_survives_arbitrary_fault_patterns(
        seed in 0u64..1000,
        faults in prop::collection::vec(0u8..4, 8..40),
    ) {
        let k = 8;
        let mut alg = StandardMwu::new(k, StandardConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        for chunk in faults.chunks(k) {
            let n = alg.plan(&mut rng).len();
            let rewards: Vec<f64> = (0..n)
                .map(|j| match chunk.get(j % chunk.len()) {
                    Some(0) => 0.0,           // dropped
                    Some(1) => f64::NAN,      // corrupted
                    Some(2) => 1e12,          // garbled huge
                    _ => 0.7,                 // delivered
                })
                .collect();
            alg.update(&rewards, &mut rng);
            let probs = alg.probabilities();
            let sum: f64 = probs.iter().sum();
            prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    // Distributed gossip: arbitrary drop/duplicate/staleness mixes keep
    // the population shares a finite distribution that sums to 1 and the
    // population count conserved.
    #[test]
    fn gossip_population_survives_arbitrary_degradation(
        seed in 0u64..1000,
        fates in prop::collection::vec(0u8..5, 4..32),
    ) {
        let k = 4;
        let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
        let pop = alg.cpus_per_iteration();
        let gossip = GossipConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        for (round, window) in fates.windows(3).enumerate() {
            let planned = alg.plan(&mut rng).to_vec();
            let mut obs = Vec::new();
            for (agent, &arm) in planned.iter().enumerate() {
                let fate = window[agent % window.len()];
                let reward = match fate {
                    3 => f64::NAN,
                    4 => -1e9,
                    _ => (arm as f64 + 1.0) / (k as f64),
                };
                match fate {
                    0 => {} // dropped
                    1 => {
                        obs.push(GossipObservation::fresh(agent, reward));
                        obs.push(GossipObservation::fresh(agent, reward));
                    }
                    2 => obs.push(GossipObservation {
                        agent,
                        reward,
                        staleness: (round % 9) as u32,
                    }),
                    _ => obs.push(GossipObservation::fresh(agent, reward)),
                }
            }
            alg.update_gossip(&obs, &gossip, &mut rng);
            let probs = alg.probabilities();
            let sum: f64 = probs.iter().sum();
            prop_assert!(probs.iter().all(|p| p.is_finite() && *p >= 0.0));
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(alg.cpus_per_iteration(), pop);
        }
    }
}
