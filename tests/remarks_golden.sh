#!/bin/sh
# Runs `amopt --passes=uniform --remarks` on every bundled example and
# compares each JSON payload's cksum (CRC and byte count) with the pinned
# list, so a change that moves a remark id or reorders a remark fails.
# Usage: remarks_golden.sh AMOPT EXAMPLES_DIR GOLDEN WORK_DIR
set -e
AMOPT=$1 EXAMPLES=$2 GOLDEN=$3 WORK=$4
OUT="$WORK/remarks_golden.json"
for F in "$EXAMPLES"/*.am; do
  "$AMOPT" --passes=uniform --remarks="$OUT" "$F" > /dev/null
  echo "$(cksum < "$OUT") $(basename "$F")"
done | diff "$GOLDEN" -
