#!/bin/sh
# Fig. 17 over a `cellrel_campaign --stream --out` directory.
#
# Such a directory has header-only transition/dwell sidecars, so the fig17
# preset (over the dataset or its spill shards) and `cellrel_analyze report
# --figures` must refuse it with an error naming `--stream --out` rather than
# print an all-zero matrix. Other presets still run on it, and a
# materialized `--out` directory still gives the matrix.
#
# usage: fig17_stream_refusal.sh CAMPAIGN QUERY ANALYZE WORK_DIR
set -u
campaign=$1 query=$2 analyze=$3 d=$4
rm -rf "$d"
"$campaign" --devices 40 --bs 100 --days 1 --quiet \
  --stream --spill-dir "$d/spill" --out "$d/stream" || exit 1
"$campaign" --devices 40 --bs 100 --days 1 --quiet --out "$d/mat" || exit 1

refuses() {
  out=$("$@" 2>&1)
  st=$?
  echo "$out"
  if [ "$st" -ne 1 ] || ! echo "$out" | grep -q -- '--stream --out'; then
    echo "FAIL: expected a --stream --out refusal (exit 1) from: $*"
    exit 1
  fi
}
refuses "$query" "$d/stream" --preset fig17
refuses "$query" "$d/stream" --spill-dir "$d/spill" --preset fig17
refuses "$analyze" report "$d/stream" --figures
refuses "$analyze" report "$d/stream" --report "$d/report.md"

"$query" "$d/stream" --preset fig2 > /dev/null || exit 1
"$query" "$d/mat" --preset fig17 || exit 1
"$analyze" report "$d/mat" --figures > /dev/null || exit 1
rm -rf "$d"
