#!/usr/bin/env sh
# Normalise harness output for determinism diffs: strip every cell that
# legitimately varies between runs (wall-clock times, throughput rates,
# job and worker counts), then collapse the whitespace and dash runs
# whose widths depend on the stripped digits.  The predict table's
# pairs/s cell is a bare number, found by the recall and wall cells
# that precede it at the end of its rows.  Shared by the CI jobs that
# require two runs to match byte for byte (bench-smoke, chaos,
# streaming-gate); any new timing format printed by the harness belongs
# here, not inlined in a workflow.
#
# Usage: scrub.sh FILE...   (or on stdin with no arguments)
exec sed -E \
  -e 's/[0-9]+\.[0-9]+ ?(s|ms|us)\b/T/g' \
  -e 's/[0-9]+\.[0-9]+x\b/X/g' \
  -e 's/in [0-9.]+s wall/in T wall/' \
  -e 's/took [0-9.]+s wall/took T wall/' \
  -e 's/[0-9]+ analysis domain/N analysis domain/' \
  -e 's/\([0-9]+ jobs\)/(N jobs)/' \
  -e 's/[0-9.]+ Mev\/s/R Mev\/s/' \
  -e 's/[0-9.]+ kev\/s/R kev\/s/' \
  -e 's/[0-9.]+ apps\/hour/R apps\/hour/' \
  -e 's/[0-9]+ KiB/M KiB/' \
  -e 's/[0-9.]+ traces\/sec/R traces\/sec/' \
  -e 's/daemon: [0-9]+ workers/daemon: N workers/' \
  -e 's/ +/ /g' \
  -e 's/-+/-/g' \
  -e 's/[[:space:]]+$//' \
  -e 's/([0-9]+\/[0-9]+ T) [0-9]+$/\1 R/' \
  -e '/^wrote /d' \
  "$@"
