#!/usr/bin/env bash
# Compare benchmarks/latest.txt against benchmarks/baseline.txt and fail
# on time regressions above BENCH_MAX_REGRESSION_PCT (default 5).
# Requires benchstat when available; falls back to a plain ns/op diff of
# matching benchmark names otherwise (no network, no installs).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="benchmarks/baseline.txt"
LATEST="benchmarks/latest.txt"
THRESHOLD="${BENCH_MAX_REGRESSION_PCT:-5}"

if [ ! -f "$BASELINE" ] || ! grep -q '^Benchmark' "$BASELINE"; then
  echo "baseline missing or empty; skipping compare"
  exit 0
fi
if [ ! -f "$LATEST" ] || ! grep -q '^Benchmark' "$LATEST"; then
  echo "benchmarks/latest.txt missing; run scripts/bench.sh first" >&2
  exit 1
fi

if command -v benchstat >/dev/null 2>&1; then
  OUT="$(benchstat "$BASELINE" "$LATEST")"
  echo "$OUT"
  echo "$OUT" > benchmarks/compare.txt
  # Gate on the time (sec/op) section only: -benchmem runs also emit
  # B/op and allocs/op sections, and geomean summary rows, which must
  # not trip a *time* regression gate.
  echo "$OUT" | awk -v thr="$THRESHOLD" '
    /sec\/op/ { insec = 1 }
    /B\/op/ || /allocs\/op/ { insec = 0 }
    insec && !/^geomean/ && match($0, /\+[0-9.]+%/) {
      val = substr($0, RSTART + 1, RLENGTH - 2) + 0
      if (val > thr) {
        printf("time regression > %s%%: %s\n", thr, $0) > "/dev/stderr"
        fail = 1
      }
    }
    END { exit fail }
  '
else
  # Fallback: average ns/op per benchmark name, then diff.
  avg() {
    awk '/^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      sum[name] += $3; n[name]++
    }
    END { for (b in sum) printf("%s %.2f\n", b, sum[b] / n[b]) }' "$1" | sort
  }
  join <(avg "$BASELINE") <(avg "$LATEST") | tee benchmarks/compare.txt |
    awk -v thr="$THRESHOLD" '{
      delta = ($3 - $2) / $2 * 100
      printf("%-50s %12.0f -> %12.0f ns/op  %+.1f%%\n", $1, $2, $3, delta)
      if (delta > thr) {
        printf("regression > %s%%: %s\n", thr, $1) > "/dev/stderr"
        fail = 1
      }
    }
    END { exit fail }'
fi
