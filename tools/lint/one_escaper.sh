#!/bin/sh
# Usage: one_escaper.sh ROOT
# Exit 1 when a .ml file under ROOT/lib, ROOT/tools or ROOT/bench other
# than lib/support/sjson.ml contains the \u%04x escape format.
cd "$1" || exit 2
hits=$(grep -RlE --include='*.ml' 'u%04[xX]' lib tools bench |
  grep -vx 'lib/support/sjson.ml')
if [ -n "$hits" ]; then
  echo "JSON escaping outside Support.Sjson (use Support.Sjson.escape):" >&2
  echo "$hits" >&2
  exit 1
fi
