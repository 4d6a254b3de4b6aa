#!/usr/bin/env bash
# Byte-for-byte golden regression check for one figure/table binary.
#
#   tools/golden_check.sh <binary> <golden-file>
#   tools/golden_check.sh --stdout <saved-stdout> <golden-file>
#
# Runs <binary> with no arguments, or reads the stdout that
# tools/save_stdout.sh saved from such a run, and diffs that full stdout
# against the checked-in golden. Any difference — a reordered row, a
# reformatted number, a changed last decimal — fails. Regenerate a golden
# ONLY for an intentional model change, by re-running the binary and
# committing the new file together with the change that explains it:
#
#   build/bench/fig5_total_power > tests/golden/fig5_total_power.txt
set -euo pipefail

usage() {
  echo "usage: $0 <binary> <golden-file>" >&2
  echo "       $0 --stdout <saved-stdout> <golden-file>" >&2
  exit 2
}

if [[ $# -eq 3 && $1 == --stdout ]]; then
  saved=$2
  golden=$3
  name=$(basename "$saved")
  if [[ ! -f "$saved" ]]; then
    echo "golden_check: saved stdout missing: $saved" >&2
    exit 2
  fi
elif [[ $# -eq 2 ]]; then
  binary=$1
  golden=$2
  name=$(basename "$binary")
  if [[ ! -x "$binary" ]]; then
    echo "golden_check: binary not found or not executable: $binary" >&2
    exit 2
  fi
else
  usage
fi

if [[ ! -f "$golden" ]]; then
  echo "golden_check: golden file missing: $golden" >&2
  exit 2
fi

if [[ -n "${binary:-}" ]]; then
  saved=$(mktemp)
  trap 'rm -f "$saved"' EXIT
  "$binary" > "$saved"
fi

if ! diff -u "$golden" "$saved"; then
  echo "golden_check: $name output diverged from $golden" >&2
  exit 1
fi
echo "golden_check: $name matches $(basename "$golden")"
