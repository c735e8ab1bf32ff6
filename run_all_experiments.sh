#!/bin/bash
# Regenerate every paper artifact into results/ (grid tables are produced by
# tables234, run separately due to runtime).
set -e
cd "$(dirname "$0")"
BIN=./target/release
mkdir -p results
$BIN/table1             > results/table1_output.txt           2>/dev/null
$BIN/fig4a              > results/fig4a_output.txt            2>/dev/null
$BIN/fig4b              > results/fig4b_output.txt            2>/dev/null
$BIN/cost_model         > results/cost_model_output.txt       2>/dev/null
$BIN/congestion         > results/congestion_output.txt       2>/dev/null
$BIN/chaos              > results/chaos_output.txt            2>/dev/null
$BIN/sync_stall         > results/sync_stall_output.txt       2>/dev/null
$BIN/repair_comparison --replicates 10 > results/repair_comparison_output.txt 2>/dev/null
$BIN/amortization       > results/amortization_output.txt     2>/dev/null
$BIN/sweep_params --replicates 10 > results/sweep_params_output.txt 2>/dev/null
$BIN/bandit_baselines --replicates 10 > results/bandit_baselines_output.txt 2>/dev/null
$BIN/regret_curves      > results/regret_curves_output.txt    2>/dev/null
$BIN/export_datasets    > results/export_datasets_output.txt  2>/dev/null
$BIN/eval_cost          > results/eval_cost_output.txt         2>/dev/null
# The Tables II-IV grid is the long pole (~30-50 min single-core at 25
# replicates); run it explicitly:
#   ./target/release/tables234 --replicates 25 > results/tables234_output.txt
echo ALL_EXPERIMENTS_DONE
