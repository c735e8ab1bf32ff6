//! Telemetry determinism suite: golden traces, observer invariants, and
//! replicate re-runs from trace headers.
//!
//! The observer pipeline's contract has three legs, each pinned here:
//!
//! 1. **Golden traces** — event payloads carry no wall-clock data and the
//!    JSON encoder keeps insertion-ordered keys, so two same-seed runs emit
//!    byte-identical JSONL for every variant.
//! 2. **Observer invariants** — iteration indices strictly increase,
//!    convergence fires at most once (and only on converged runs), summed
//!    per-cycle communication deltas reconstruct the final [`CommStats`],
//!    and observing a run does not change its outcome.
//! 3. **Trace headers are recipes** — each grid [`TraceEvent::Replicate`]
//!    carries `run_seed` and `max_iterations`, from which the replicate
//!    re-runs standalone to the identical outcome.

use integration_tests::{test_run_config, test_seed};
use mwrepair::{effective_arms, repair_observed, repair_with_ledger, MwRepairConfig};
use mwu_core::trace::{JsonlSink, NullObserver, Observer, TraceEvent};
use mwu_core::{
    run_to_convergence_observed, run_with_regret_observed, Bandit, CommStats, DistributedConfig,
    DistributedMwu, RunConfig, RunOutcome, SlateConfig, SlateMwu, StandardConfig, StandardMwu,
    Variant,
};
use mwu_datasets::{catalog, Dataset};
use mwu_experiments::{replicate_seed, run_grid_observed, GridConfig};

/// Collects every event, preserving order.
#[derive(Default)]
struct Collect {
    events: Vec<TraceEvent>,
}

impl Observer for Collect {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

const VARIANTS: [&str; 3] = ["standard", "slate", "distributed"];

/// Run `variant` on `dataset` under `observer`, constructing a fresh
/// algorithm instance (the runs must be independent for determinism checks).
fn run_observed<O: Observer>(
    variant: &str,
    dataset: &Dataset,
    cfg: &RunConfig,
    observer: &mut O,
) -> RunOutcome {
    let k = dataset.size();
    let mut bandit = dataset.bandit();
    match variant {
        "standard" => {
            let mut alg = StandardMwu::new(k, StandardConfig::default());
            run_to_convergence_observed(&mut alg, &mut bandit, cfg, observer)
        }
        "slate" => {
            let mut alg = SlateMwu::new(k, SlateConfig::default());
            run_to_convergence_observed(&mut alg, &mut bandit, cfg, observer)
        }
        "distributed" => {
            let mut alg = DistributedMwu::try_new(k, DistributedConfig::default())
                .expect("test datasets are distributed-tractable");
            run_to_convergence_observed(&mut alg, &mut bandit, cfg, observer)
        }
        other => panic!("unknown variant {other}"),
    }
}

fn jsonl_trace(variant: &str, dataset: &Dataset, cfg: &RunConfig) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    run_observed(variant, dataset, cfg, &mut sink);
    sink.into_inner()
}

// ---------------------------------------------------------------- leg 1 —

#[test]
fn same_seed_runs_emit_byte_identical_traces_for_every_variant() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(20, 0));
    for variant in VARIANTS {
        let a = jsonl_trace(variant, &d, &cfg);
        let b = jsonl_trace(variant, &d, &cfg);
        assert!(!a.is_empty(), "{variant}: empty trace");
        assert_eq!(a, b, "{variant}: same-seed traces differ");
    }
}

#[test]
fn different_seeds_emit_different_traces() {
    // Guards the golden-trace test against vacuity: if the sink ignored the
    // run, same-seed traces would trivially match.
    let d = catalog::by_name("random64").unwrap();
    let a = jsonl_trace("standard", &d, &test_run_config(test_seed(20, 1)));
    let b = jsonl_trace("standard", &d, &test_run_config(test_seed(20, 2)));
    assert_ne!(a, b, "distinct seeds produced identical traces");
}

#[test]
fn every_trace_line_parses_and_reencodes_identically() {
    let d = catalog::by_name("random64").unwrap();
    let raw = jsonl_trace("distributed", &d, &test_run_config(test_seed(20, 3)));
    let text = String::from_utf8(raw).expect("trace is UTF-8");
    assert!(text.lines().count() >= 3, "expected start + cycles + end");
    for line in text.lines() {
        let event: TraceEvent = serde_json::from_str(line).expect("line parses");
        let again = serde_json::to_string(&event).expect("re-encode");
        assert_eq!(again, line, "round-trip changed the encoding");
    }
}

#[test]
fn run_end_event_agrees_with_returned_outcome() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(21, 0));
    for variant in VARIANTS {
        let mut collect = Collect::default();
        let outcome = run_observed(variant, &d, &cfg, &mut collect);
        let last = collect.events.last().expect("trace has events");
        match last {
            TraceEvent::RunEnd(traced) => assert_eq!(
                traced, &outcome,
                "{variant}: RunEnd payload disagrees with the returned outcome"
            ),
            other => panic!("{variant}: last event is {other:?}, not RunEnd"),
        }
    }
}

// ---------------------------------------------------------------- leg 2 —

#[test]
fn iteration_indices_strictly_increase_from_one() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(22, 0));
    for variant in VARIANTS {
        let mut collect = Collect::default();
        run_observed(variant, &d, &cfg, &mut collect);
        let indices: Vec<usize> = collect
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Iteration(it) => Some(it.iteration),
                _ => None,
            })
            .collect();
        assert!(!indices.is_empty(), "{variant}: no iteration events");
        assert_eq!(indices[0], 1, "{variant}: first cycle is not 1");
        assert!(
            indices.windows(2).all(|w| w[1] == w[0] + 1),
            "{variant}: iteration indices not consecutive: {indices:?}"
        );
    }
}

#[test]
fn convergence_fires_at_most_once_and_only_when_converged() {
    let d = catalog::by_name("random64").unwrap();
    for variant in VARIANTS {
        for rep in 0..3 {
            let cfg = test_run_config(test_seed(23, rep));
            let mut collect = Collect::default();
            let outcome = run_observed(variant, &d, &cfg, &mut collect);
            let conv: Vec<_> = collect
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Convergence(c) => Some(c.clone()),
                    _ => None,
                })
                .collect();
            assert!(
                conv.len() <= 1,
                "{variant}: convergence fired {} times",
                conv.len()
            );
            assert_eq!(
                conv.len() == 1,
                outcome.converged,
                "{variant}: convergence events disagree with outcome.converged"
            );
            if let Some(c) = conv.first() {
                assert_eq!(c.iteration, outcome.iterations);
                assert_eq!(c.leader, outcome.leader);
            }
        }
    }
}

#[test]
fn summed_comm_deltas_reconstruct_final_comm_stats() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(24, 0));
    for variant in VARIANTS {
        let mut collect = Collect::default();
        let outcome = run_observed(variant, &d, &cfg, &mut collect);
        let mut sum = CommStats::default();
        for e in &collect.events {
            if let TraceEvent::Iteration(it) = e {
                sum.messages += it.comm.messages;
                sum.total_congestion += it.comm.congestion;
                sum.rounds += it.comm.rounds;
            }
        }
        assert_eq!(sum.messages, outcome.comm.messages, "{variant}: messages");
        assert_eq!(
            sum.total_congestion, outcome.comm.total_congestion,
            "{variant}: congestion"
        );
        assert_eq!(sum.rounds, outcome.comm.rounds, "{variant}: rounds");
    }
}

#[test]
fn observing_a_run_does_not_change_its_outcome() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(25, 0));
    for variant in VARIANTS {
        let unobserved = run_observed(variant, &d, &cfg, &mut NullObserver);
        let mut collect = Collect::default();
        let observed = run_observed(variant, &d, &cfg, &mut collect);
        assert_eq!(
            unobserved, observed,
            "{variant}: observation perturbed the run"
        );
    }
}

#[test]
fn regret_runs_emit_deterministic_traces_too() {
    let d = catalog::by_name("random64").unwrap();
    let cfg = test_run_config(test_seed(26, 0));
    let trace = |cfg: &RunConfig| {
        let mut alg = StandardMwu::new(d.size(), StandardConfig::default());
        let mut bandit = d.bandit();
        let mut sink = JsonlSink::new(Vec::new());
        run_with_regret_observed(&mut alg, &mut bandit, cfg, &mut sink);
        sink.into_inner()
    };
    let a = trace(&cfg);
    let b = trace(&cfg);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed regret traces differ");
}

/// A regret run is the convergence run's loop with the horizon forced to
/// full length: at `run_past_convergence: true` both emit the same bytes,
/// convergence marker included, for every variant.
#[test]
fn regret_traces_equal_full_horizon_convergence_traces() {
    let d = catalog::by_name("random64").unwrap();
    for (i, variant) in VARIANTS.iter().enumerate() {
        let cfg = RunConfig {
            max_iterations: 1_500,
            seed: test_seed(30, i as u64),
            run_past_convergence: true,
        };
        let expected = jsonl_trace(variant, &d, &cfg);
        let k = d.size();
        let mut bandit = d.bandit();
        let mut sink = JsonlSink::new(Vec::new());
        let curve = match *variant {
            "standard" => {
                let mut alg = StandardMwu::new(k, StandardConfig::default());
                run_with_regret_observed(&mut alg, &mut bandit, &cfg, &mut sink)
            }
            "slate" => {
                let mut alg = SlateMwu::new(k, SlateConfig::default());
                run_with_regret_observed(&mut alg, &mut bandit, &cfg, &mut sink)
            }
            _ => {
                let mut alg = DistributedMwu::try_new(k, DistributedConfig::default()).unwrap();
                run_with_regret_observed(&mut alg, &mut bandit, &cfg, &mut sink)
            }
        };
        assert_eq!(curve.per_cycle.len(), cfg.max_iterations, "{variant}");
        assert_eq!(curve.probes, bandit.pulls(), "{variant}");
        let trace = sink.into_inner();
        assert!(
            String::from_utf8_lossy(&trace).contains("\"Convergence\""),
            "{variant}: the horizon should cover convergence"
        );
        assert_eq!(trace, expected, "{variant}: regret trace differs");
    }
}

// ---------------------------------------------------------------- leg 3 —

#[test]
fn grid_replicate_headers_re_run_to_the_traced_outcome() {
    let d = catalog::by_name("random64").unwrap();
    let grid = GridConfig {
        replicates: 3,
        max_iterations: 3_000,
        seed: test_seed(27, 0),
    };
    let mut sink = JsonlSink::new(Vec::new());
    run_grid_observed(std::slice::from_ref(&d), &grid, &mut sink);
    let text = String::from_utf8(sink.into_inner()).unwrap();

    let mut replicates = 0;
    for line in text.lines() {
        let event: TraceEvent = serde_json::from_str(line).expect("line parses");
        let TraceEvent::Replicate(rep) = event else {
            continue;
        };
        replicates += 1;
        let variant = Variant::ALL
            .into_iter()
            .find(|v| v.name() == rep.algorithm)
            .expect("header names a variant");
        // The header's seed is the documented derivation...
        assert_eq!(
            rep.run_seed,
            replicate_seed(variant, &d, grid.seed, rep.replicate),
            "{variant} replicate {} header seed mismatch",
            rep.replicate
        );
        // ...and (run_seed, max_iterations) alone re-runs the replicate.
        let cfg = RunConfig {
            max_iterations: rep.max_iterations,
            seed: rep.run_seed,
            run_past_convergence: false,
        };
        let rerun = run_observed(variant.name(), &d, &cfg, &mut NullObserver);
        assert_eq!(
            rerun, rep.outcome,
            "{variant} replicate {} did not reproduce from its trace header",
            rep.replicate
        );
    }
    assert_eq!(replicates, 9, "expected one Replicate event per replicate");
}

#[test]
fn grid_cell_trace_is_deterministic_and_scheduling_independent() {
    let d = catalog::by_name("random64").unwrap();
    let grid = GridConfig {
        replicates: 3,
        max_iterations: 3_000,
        seed: test_seed(27, 1),
    };
    let run = || {
        let mut sink = JsonlSink::new(Vec::new());
        run_grid_observed(std::slice::from_ref(&d), &grid, &mut sink);
        sink.into_inner()
    };
    assert_eq!(run(), run(), "same-seed cell traces differ");
}

// ------------------------------------------------- mwrepair probe events —

#[test]
fn repair_trace_orders_probes_and_reports_repair_once() {
    let s = apr_sim::BugScenario::by_name("lighttpd-1806-1807").unwrap();
    let pool = s.build_pool(test_seed(28, 0), None);
    let config = MwRepairConfig::seeded(test_seed(28, 1));
    let k = effective_arms(pool.len(), &config);

    let mut collect = Collect::default();
    let mut alg = StandardMwu::new(k, StandardConfig::default());
    let outcome = repair_observed(&s, &pool, &mut alg, &config, None, &mut collect);

    // Unobserved twin: telemetry must not perturb the search.
    let mut alg2 = StandardMwu::new(k, StandardConfig::default());
    let twin = repair_with_ledger(&s, &pool, &mut alg2, &config, None);
    assert_eq!(outcome.probes, twin.probes);
    assert_eq!(outcome.iterations, twin.iterations);
    assert_eq!(outcome.leader_arm, twin.leader_arm);
    assert_eq!(outcome.is_repaired(), twin.is_repaired());

    let probes: Vec<_> = collect
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Probe(p) => Some(p.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        probes.len() as u64,
        outcome.probes,
        "one ProbeEvent per probe"
    );
    // Within a cycle, probes report in agent order; across cycles the
    // iteration index never decreases.
    for w in probes.windows(2) {
        assert!(
            w[1].iteration > w[0].iteration
                || (w[1].iteration == w[0].iteration && w[1].agent == w[0].agent + 1),
            "probe order broken: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    for p in &probes {
        assert!(
            (1..=k).contains(&p.composition_size),
            "composition size {} outside 1..={k}",
            p.composition_size
        );
    }

    let repairs: Vec<_> = collect
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Repair(r) => Some(r.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        repairs.len(),
        usize::from(outcome.is_repaired()),
        "RepairEvent count disagrees with the outcome"
    );
    if let (Some(r), Some(report)) = (repairs.first(), &outcome.repair) {
        assert_eq!(r.composition_size, report.mutations.len());
    }
}

#[test]
fn repair_traces_are_deterministic() {
    let s = apr_sim::BugScenario::by_name("lighttpd-1806-1807").unwrap();
    let pool = s.build_pool(test_seed(29, 0), None);
    let config = MwRepairConfig::seeded(test_seed(29, 1));
    let k = effective_arms(pool.len(), &config);
    let run = || {
        let mut alg = StandardMwu::new(k, StandardConfig::default());
        let mut sink = JsonlSink::new(Vec::new());
        repair_observed(&s, &pool, &mut alg, &config, None, &mut sink);
        sink.into_inner()
    };
    assert_eq!(run(), run(), "same-seed repair traces differ");
}
