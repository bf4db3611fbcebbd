#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# experiments. Results print to stdout and JSON copies land in
# bench_results/.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  table1_comm_overhead fig2_value_changes fig10_loss_curves fig11_speedup
  fig12_breakdown fig13_dba_activation table5_accuracy table6_model_size
  table7_zeroquant table8_lz4 ablation_inval_vs_update volume_and_overhead
  sec7_lammps overhead_analysis api_overhead
  ablation_dirty_bytes ablation_granularity ablation_pcie_gen
  ablation_cpu_speed baselines_comparison autotune_act_steps
  trace_replay_validation cost_savings sweep
  generate_report
)

cargo build --release -p teco-bench >/dev/null
for b in "${BINS[@]}"; do
  cargo run -q --release -p teco-bench --bin "$b"
done
echo
echo "All experiments regenerated. JSON results: bench_results/"
