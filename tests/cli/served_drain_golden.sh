#!/bin/sh
# Drains a fixed queue with `rebench serve --once` through every way the
# daemon files a verdict and compares what it leaves on disk with the
# checked-in golden files, byte for byte.
#
#   usage: served_drain_golden.sh REBENCH GOLDEN_DIR WORK_DIR
#
# The queue holds a babelstream run on archer2 (ran:clean), an HPCG
# operator that is N/A on archer2's Rome (failed:permanent, memoized), a
# std-ranges suite under injected faults (retried, ran:clean) and one
# tampered submission (filed without the journal).  Four passes:
#
#   cold    every campaign executes                    (executed ending)
#   warm    memoized keys answer from the RunCache     (cache-hit ending)
#   crash   --crash-after verdict: killed right after the first journaled
#           verdict, before its verdict file is rewritten
#   resume  that journaled verdict is re-filed as is   (resume ending)
#
# The tampered submission takes the journal-bypassing ending on every
# pass.  WORK_DIR/out mirrors GOLDEN_DIR: per-pass stdout, the cold
# pass's verdicts and health, then the final verdicts, health, service
# journal, campaign manifests and `history --store --json`.  WORK_DIR is
# removed when everything matches and kept for inspection otherwise.
set -u
rebench=$1
golden=$2
work=$3
q=$work/queue
s=$work/store
out=$work/out
rm -rf "$work" && mkdir -p "$out/cold" "$out/manifests" || exit 1

"$rebench" submit --queue "$q" --benchmark babelstream --system archer2 \
  --repeats 2 > /dev/null || exit 1
"$rebench" submit --queue "$q" --benchmark hpcg --system archer2 \
  -S operator=csr-opt > /dev/null || exit 1
"$rebench" submit --queue "$q" --system archer2 --tag std-ranges \
  --faults seed=3,crash=0.3,build=0.3 --retries 2 --repeats 3 \
  > /dev/null || exit 1
tampered=$("$rebench" submit --queue "$q" --benchmark babelstream \
  --system archer2 --repeats 3 | cut -d' ' -f2) || exit 1
echo ' ' >> "$q/sub-$tampered.json"

"$rebench" serve --queue "$q" --store "$s" --once > "$out/cold.out" || exit 1
cp -r "$q/verdicts" "$out/cold/verdicts" && cp "$q/health.json" "$out/cold/" \
  || exit 1
"$rebench" serve --queue "$q" --store "$s" --once > "$out/warm.out" || exit 1
"$rebench" serve --queue "$q" --store "$s" --once --crash-after verdict \
  > "$out/crash.out"
test $? -eq 3 || exit 1
"$rebench" serve --queue "$q" --store "$s" --once > "$out/resume.out" || exit 1

cp -r "$q/verdicts" "$out/verdicts" &&
  cp "$q/health.json" "$q/service-journal.jsonl" "$out/" &&
  cp "$s"/manifests/campaign-*.json "$out/manifests/" &&
  "$rebench" history --store "$s" --json > "$out/history.json" || exit 1

diff -r "$golden" "$out" || exit 1
rm -rf "$work"
echo SERVED DRAIN GOLDEN
