#!/usr/bin/env bash
# Runs one bench binary with no arguments and saves its stdout, so that a
# single run serves every ctest check of that binary:
#
#   tools/save_stdout.sh <binary> <stdout-file>
#
# Fails when the binary exits non-zero, and then leaves no <stdout-file>
# behind, so no later check can read a stale one. bench_smoke_<name> runs
# this; golden_<name> (tools/golden_check.sh --stdout) and the error-bound
# checks (tools/error_bound_check.sh) read the saved file.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <binary> <stdout-file>" >&2
  exit 2
fi

binary=$1
saved=$2

if [[ ! -x "$binary" ]]; then
  echo "save_stdout: binary not found or not executable: $binary" >&2
  exit 2
fi

mkdir -p "$(dirname "$saved")"
rm -f "$saved"
"$binary" > "$saved.partial"
mv "$saved.partial" "$saved"
echo "save_stdout: $(basename "$binary") exited 0; stdout saved to $saved"
