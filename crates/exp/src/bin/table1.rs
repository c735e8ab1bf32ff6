//! Table I — asymptotic complexity of the three MWU variants, evaluated at
//! concrete parameters so the symbolic entries can be compared numerically.
//!
//! Prints the symbolic Table I first, then its numeric evaluation across a
//! range of (k, n) to make the scaling visible.

use mwu_core::cost::{asymptotic_costs, CostParams, Variant};
use mwu_experiments::cli::{Args, OUT, PROFILE, QUIET, THREADS};
use mwu_experiments::render_table;

fn main() {
    let args = Args::from_env("table1", &[OUT, THREADS, PROFILE, QUIET]);

    println!("Table I — asymptotic properties (symbolic)\n");
    let sym = vec![
        vec![
            "Communication Cost".to_string(),
            "O(n)".to_string(),
            "O(ln n / ln ln n) *".to_string(),
            "O(n)".to_string(),
        ],
        vec![
            "Memory Overhead".to_string(),
            "O(k)".to_string(),
            "O(1)".to_string(),
            "O(k)".to_string(),
        ],
        vec![
            "Convergence Time".to_string(),
            "O(ln k / eps^2)".to_string(),
            "O(ln k / delta)".to_string(),
            "O((k/n) ln k / eps^2)".to_string(),
        ],
        vec![
            "Minimum Agents".to_string(),
            "O(n)".to_string(),
            "O(k^(3/2))".to_string(),
            "O(n)".to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(&["property", "Standard", "Distributed", "Slate"], &sym)
    );
    println!("  * holds with probability at least 1 - 1/n (balls into bins)\n");

    println!("Table I — numeric evaluation (eps = 0.05, beta = 0.9 => delta = ln 9)\n");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &k in &[64usize, 256, 1024, 4096, 16384] {
        // n: Standard uses k agents; Slate its derived slate size; the
        // evaluation below reports each variant at its own operating point.
        for &variant in &[Variant::Standard, Variant::Distributed, Variant::Slate] {
            let n = match variant {
                Variant::Standard => k,
                Variant::Slate => ((0.05 * k as f64).ceil() as usize).clamp(2, k),
                Variant::Distributed => (k as f64).powf(1.5).ceil() as usize,
            };
            let p = CostParams::new(k, n);
            let c = asymptotic_costs(variant, &p);
            rows.push(vec![
                format!("{k}"),
                variant.to_string(),
                format!("{n}"),
                format!("{:.1}", c.communication),
                format!("{:.0}", c.memory),
                format!("{:.0}", c.convergence_time),
                format!("{:.0}", c.min_agents),
            ]);
            csv_rows.push(vec![
                k.to_string(),
                variant.to_string(),
                n.to_string(),
                format!("{:.4}", c.communication),
                format!("{:.4}", c.memory),
                format!("{:.4}", c.convergence_time),
                format!("{:.4}", c.min_agents),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "k",
                "variant",
                "n",
                "comm",
                "memory",
                "convergence",
                "min agents"
            ],
            &rows
        )
    );

    args.write_csv(
        "table1.csv",
        &[
            "k",
            "variant",
            "n",
            "communication",
            "memory",
            "convergence_time",
            "min_agents",
        ],
        &csv_rows,
    );
    args.write_profile();
}
