#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# experiments: `sweep` runs every registered experiment, `generate_report`
# renders REPORT.md. Results print to stdout and JSON copies land in
# bench_results/.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(sweep generate_report)

cargo build --release -p teco-bench >/dev/null
for b in "${BINS[@]}"; do
  cargo run -q --release -p teco-bench --bin "$b"
done
echo
echo "All experiments regenerated. JSON results: bench_results/"
