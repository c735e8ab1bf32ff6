//! §III-C — the synchronization-stall argument for precomputation.
//!
//! Two parts:
//!
//! 1. **Analytic tail**: with `m` synchronized threads each drawing a
//!    mutation-generation workload uniformly from `n` outcomes, the chance
//!    that some thread lands in the worst `k` outcomes is `1 − ((n−k)/n)^m`
//!    — the paper's example: 64 threads, worst decile, ≈ 99.9 %.
//! 2. **Measured stall**: real threads (`simnet::ThreadPool`) run
//!    heavy-tailed per-round work under a barrier vs. free-running; the
//!    efficiency ratio reproduces "the naive system operates at about half
//!    the efficiency of threads requiring no synchronization blocks."

use mwu_core::cost::prob_worst_case_hit;
use mwu_experiments::{render_table, write_results_csv, CommonArgs};
use simnet::{SyncMode, ThreadPool};

fn main() {
    let args = CommonArgs::from_env();

    println!("§III-C part 1 — probability a synchronized round hits the worst decile\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &m in &[1u64, 4, 16, 64, 256] {
        let p = prob_worst_case_hit(100, 10, m);
        rows.push(vec![m.to_string(), format!("{:.4}", p)]);
        csv.push(vec![m.to_string(), format!("{:.6}", p)]);
    }
    println!(
        "{}",
        render_table(&["threads", "P[worst-decile hit]"], &rows)
    );
    println!("paper example: 64 threads ⇒ ≈ 0.999\n");

    println!("§III-C part 2 — measured barrier stall (real threads)\n");
    // Per-(thread, round) work: mutation generation until a safe one is
    // found is geometric; we model the per-round work as proportional to a
    // draw from 1..=100 candidate mutations (the paper's example range).
    let threads = 8;
    let rounds = 40;
    let pool = ThreadPool::new(threads);
    let work = |tid: usize, round: usize| {
        // Deterministic heavy-tailed work: uniform in [10µs, 1000µs].
        let h = mwu_core::rng::mix(&[tid as u64, round as u64, 77]);
        let micros = 10 + h % 991;
        simnet::executor::spin_for_micros(micros);
    };
    let barrier = pool.run_rounds(rounds, SyncMode::Barrier, work);
    let free = pool.run_rounds(rounds, SyncMode::Free, work);
    let eff_barrier = barrier.efficiency(threads);
    let eff_free = free.efficiency(threads);
    let rows = vec![
        vec![
            "barrier (on-the-fly generation)".to_string(),
            format!("{:?}", barrier.wall),
            format!("{:.2}", eff_barrier),
        ],
        vec![
            "free (precomputed pool)".to_string(),
            format!("{:?}", free.wall),
            format!("{:.2}", eff_free),
        ],
    ];
    println!(
        "{}",
        render_table(&["mode", "wall time", "efficiency"], &rows)
    );
    println!(
        "efficiency ratio barrier/free = {:.2}  (paper: ≈ 0.5 — \"about half the efficiency\")",
        eff_barrier / eff_free.max(1e-9)
    );
    println!(
        "barrier stall: mean {:?}/round across {} threads, worst round {:?}",
        barrier.stall / rounds as u32,
        threads,
        barrier.worst_round_stall
    );
    if std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        < threads
    {
        println!(
            "note: host exposes fewer than {threads} cores; the barrier stall is still
visible but the free-running efficiency is depressed by time-slicing."
        );
    }

    let path = write_results_csv(
        &args.out_dir,
        "sync_stall.csv",
        &["threads", "p_worst_decile"],
        &csv,
    )
    .expect("write sync_stall.csv");
    if !args.quiet {
        eprintln!("wrote {}", path.display());
    }
    args.write_profile();
}
