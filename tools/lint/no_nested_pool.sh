#!/bin/sh
# Usage: no_nested_pool.sh ROOT
# Exit 1 when an .ml under ROOT/lib/analysis or ROOT/lib/detectors
# mentions Domain_pool or Domain.spawn. Parallelism belongs to the
# corpus drivers, one entry per domain: a pool inside an analysis
# would nest under theirs and oversubscribe the cores.
cd "$1" || exit 2
hits=$(grep -rlE 'Domain_pool|Domain\.spawn' --include='*.ml' \
  lib/analysis lib/detectors)
if [ -n "$hits" ]; then
  echo "domain pool inside an analysis (parallelise in the corpus driver):" >&2
  echo "$hits" >&2
  exit 1
fi
