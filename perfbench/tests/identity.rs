//! The benchmark's wrappers and in-memory store are byte-neutral: a run
//! through them writes exactly what a plain run writes.

use mwrepair_service::{Daemon, DaemonConfig, DaemonSummary, RealVfs, Vfs};
use mwu_core::trace::JsonlSink;
use perfbench::daemon::{self, DaemonInputs};
use perfbench::grid;
use perfbench::memvfs::MemVfs;
use perfbench::wrap::{Clock, TimedObserver, TimedVfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// Per-run exposition with wall-clock in it; not part of the contract.
const METRICS_FILE: &str = "metrics.json";

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("identity-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_batch() -> DaemonInputs {
    // Tenant t000 is budgeted, so budget-exhausted sessions are covered.
    DaemonInputs::loadgen(60, 5, 7)
}

fn run(inp: &DaemonInputs, workdir: &Path, vfs: Arc<dyn Vfs>) -> DaemonSummary {
    let mut config = DaemonConfig::new(workdir);
    config.slice_iterations = inp.slice;
    config.quiet = true;
    config.vfs = vfs;
    let mut d = Daemon::open(config).unwrap();
    d.submit_bytes(&inp.batch).unwrap();
    d.run().unwrap()
}

fn disk_tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                out.insert(
                    p.strip_prefix(root).unwrap().into(),
                    std::fs::read(&p).unwrap(),
                );
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out.remove(Path::new(METRICS_FILE));
    out
}

fn mem_tree(vfs: &MemVfs, root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = vfs.dump(root);
    out.remove(Path::new(METRICS_FILE));
    out
}

#[test]
fn timed_vfs_over_disk_writes_the_same_tree_and_keeps_group_commit() {
    let inp = small_batch();
    let (plain_dir, timed_dir) = (scratch("disk-plain"), scratch("disk-timed"));
    let plain = run(&inp, &plain_dir, Arc::new(RealVfs));
    let timed_vfs = Arc::new(TimedVfs::new(Arc::new(RealVfs), timed_dir.clone()));
    let timed = run(&inp, &timed_dir, Arc::clone(&timed_vfs) as Arc<dyn Vfs>);
    assert!(plain.budget_exhausted > 0 && plain.completed > 0);
    assert_eq!(disk_tree(&plain_dir), disk_tree(&timed_dir));
    // Forwarding the staged surface keeps one batched sync per round; a
    // wrapper falling back to the eager defaults would report none.
    assert!(plain.io_syncs_batched > 0);
    assert_eq!(plain.io_syncs_batched, timed.io_syncs_batched);
    assert_eq!(plain.rounds, timed.rounds);
    assert_eq!(timed_vfs.barriers().len() as u64, timed.rounds + 1);
    std::fs::remove_dir_all(&plain_dir).unwrap();
    std::fs::remove_dir_all(&timed_dir).unwrap();
}

#[test]
fn memory_store_matches_the_real_filesystem() {
    let inp = small_batch();
    let disk_dir = scratch("mem-vs-disk");
    let disk = run(&inp, &disk_dir, Arc::new(RealVfs));
    let root = PathBuf::from("/mem/work");
    let mem = Arc::new(MemVfs::default());
    let in_mem = run(&inp, &root, Arc::clone(&mem) as Arc<dyn Vfs>);
    assert_eq!(disk_tree(&disk_dir), mem_tree(&mem, &root));
    assert_eq!(disk.io_syncs_batched, in_mem.io_syncs_batched);
    // And the wrapper is neutral over memory too.
    let mem2 = Arc::new(MemVfs::default());
    let timed = Arc::new(TimedVfs::new(
        Arc::clone(&mem2) as Arc<dyn Vfs>,
        root.clone(),
    ));
    let wrapped = run(&inp, &root, timed);
    assert_eq!(mem_tree(&mem, &root), mem_tree(&mem2, &root));
    assert_eq!(in_mem.io_syncs_batched, wrapped.io_syncs_batched);
    std::fs::remove_dir_all(&disk_dir).unwrap();
}

#[test]
fn wrapped_replays_write_the_same_jsonl() {
    let mut inp = small_batch();
    inp.jobs.truncate(12);
    inp.jobs
        .extend(DaemonInputs::catalog(30, 3).jobs.into_iter().step_by(7));
    let data = daemon::scenario_data(&inp.jobs);
    for job in &inp.jobs {
        let d = &data[&job.scenario.cache_key()];
        let plain = daemon::replay(job, d, None);
        let clock: Clock = Rc::default();
        let wrapped = daemon::replay(job, d, Some(&clock));
        assert_eq!(plain.trace, wrapped.trace, "{}", job.id);
        assert_eq!(plain.outcome, wrapped.outcome, "{}", job.id);
        assert!(clock.borrow().rounds > 0);
    }
}

#[test]
fn sessions_are_checked_against_their_replay() {
    let inp = small_batch();
    let rep = daemon::run_rep(&inp, "check", true, false, None).unwrap();
    let mut outputs = rep.outputs.unwrap();
    let verified = daemon::verify(&inp, &outputs);
    assert!(verified.failures.is_empty(), "{:?}", verified.failures);
    outputs[3].trace_digest ^= 1;
    let verified = daemon::verify(&inp, &outputs);
    assert_eq!(verified.failures.len(), 1, "{:?}", verified.failures);
}

#[test]
fn wrapped_grid_pass_writes_the_same_trace_and_csvs() {
    let datasets: Vec<_> = grid::build_datasets()
        .into_iter()
        .filter(|d| ["random256", "Chart26"].contains(&d.name.as_str()))
        .collect();
    let config = mwu_experiments::GridConfig {
        replicates: 3,
        ..grid::config(5)
    };
    let (dir_a, dir_b) = (scratch("grid-plain"), scratch("grid-timed"));
    let mut plain = JsonlSink::new(Vec::new());
    let (_, csv_a, _) = grid::pass(&datasets, &config, &mut plain, &dir_a);
    let clock: Clock = Rc::default();
    let mut timed = TimedObserver::new(JsonlSink::new(Vec::new()), Rc::clone(&clock));
    let (cells, csv_b, _) = grid::pass(&datasets, &config, &mut timed, &dir_b);
    assert_eq!(plain.into_inner(), timed.into_inner().into_inner());
    assert_eq!(csv_a, csv_b);
    assert!(clock.borrow().observer_calls > 0);

    let mut collect = grid::Collect::default();
    grid::pass(&datasets, &config, &mut collect, &dir_a);
    let mut events = collect.0;
    let n = grid::tractable_replicates(&cells);
    assert!(grid::verify(&datasets, &config, &events, n).is_empty());
    events[0].outcome.leader += 1;
    assert_eq!(grid::verify(&datasets, &config, &events, n).len(), 1);
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}
