#!/usr/bin/env bash
# The regression gate: rebuild every JSON baseline document at its CI scale
# and diff it byte for byte against the committed baselines/BENCH_<cmd>.json.
# Every number in the documents is determined by (scale, seed), so any
# difference is a drift. The fresh documents are left in artifacts/; the
# script names every command whose document differs and exits 1.
#
# Usage: baselines/check.sh
#
# To regenerate one baseline after an intentional change, redirect the
# document into it at the scale below, e.g.
#   cargo run --release -p mbdr-bench --bin reproduce -- net --scale 0.05 > baselines/BENCH_net.json
set -u
cd "$(dirname "$0")/.."

# connscale holds two fds per connection in one process; reproduce exits 2
# with the limit it needs if this is still too low.
ulimit -n 16384 || echo "warning: cannot raise the open-file limit" >&2

cargo build --release -q -p mbdr-bench --bin reproduce || exit 1
mkdir -p artifacts
failed=""
for pair in json:0.05 throughput:0.02 wire:0.05 net:0.05 connscale:1.0 \
            hotpath:0.05 scale:1.0 recovery:1.0 faults:1.0; do
  cmd="${pair%%:*}"
  scale="${pair#*:}"
  echo "== reproduce $cmd --scale $scale"
  if ! cargo run --release -q -p mbdr-bench --bin reproduce -- "$cmd" --scale "$scale" \
      > "artifacts/BENCH_$cmd.json" \
    || ! diff -u "baselines/BENCH_$cmd.json" "artifacts/BENCH_$cmd.json"; then
    failed="$failed $cmd"
  fi
done
if [ -n "$failed" ]; then
  echo "baseline check failed for:$failed" >&2
  exit 1
fi
echo "all nine baselines match"
