#!/bin/sh
# Usage: one_entry_point.sh ROOT
# Exit 1 when a detector interface under ROOT/lib/detectors declares a
# program-taking [run] or [run_with_sessions], or when
# lib/detectors/all.mli mentions Mir.program: [run_ctx] and the
# [All.detectors] table are the only ways in.
cd "$1" || exit 2
hits=$(grep -lE '^ *val +(run|run_with_sessions) *:' lib/detectors/*.mli)
if grep -q 'Mir\.program' lib/detectors/all.mli; then
  hits="$hits lib/detectors/all.mli"
fi
if [ -n "$hits" ]; then
  echo "second detector entry point (use run_ctx (Analysis.Cache.create p)):" >&2
  echo "$hits" >&2
  exit 1
fi
