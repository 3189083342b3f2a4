#!/usr/bin/env sh
# Normalise harness output for determinism diffs: strip every cell that
# legitimately varies between runs (wall-clock times, throughput rates,
# job counts), then collapse the whitespace and dash runs whose widths
# depend on the stripped digits.  Shared by the CI jobs that require
# two runs to match byte for byte (bench-smoke, on the bench tables,
# and chaos, on the corpus sweep); any new timing format printed by the
# harness belongs here, not inlined in a workflow.
#
# Usage: scrub.sh FILE...   (or on stdin with no arguments)
exec sed -E \
  -e 's/[0-9]+\.[0-9]+ ?(s|ms|us)\b/T/g' \
  -e 's/in [0-9.]+s wall/in T wall/' \
  -e 's/took [0-9.]+s wall/took T wall/' \
  -e 's/[0-9]+ analysis domain/N analysis domain/' \
  -e 's/\([0-9]+ jobs\)/(N jobs)/' \
  -e 's/[0-9.]+ Mev\/s/R Mev\/s/' \
  -e 's/ +/ /g' \
  -e 's/-+/-/g' \
  -e 's/[[:space:]]+$//' \
  -e '/^wrote /d' \
  "$@"
