#!/usr/bin/env bash
# Checks that a binary refuses a bad command line: it must exit with
# status 2, name the bad flag or argument on stderr, and write no file.
#
#   tools/flag_reject_check.sh <flag> <binary> [args...]
#
# The binary runs in a fresh empty directory, which must still be empty
# when it exits.
set -uo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <flag> <binary> [args...]" >&2
  exit 2
fi
flag=$1
shift

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

stderr=$(cd "$dir" && "$@" 2>&1 >/dev/null)
status=$?
if [[ $status -ne 2 ]]; then
  echo "flag_reject_check: expected exit status 2, got $status" >&2
  exit 1
fi
if [[ $stderr != *"$flag"* ]]; then
  echo "flag_reject_check: stderr does not name $flag: $stderr" >&2
  exit 1
fi
if [[ -n $(ls -A "$dir") ]]; then
  echo "flag_reject_check: files written: $(ls -A "$dir")" >&2
  exit 1
fi
echo "flag_reject_check: $(basename "$1") refused $flag with status 2"
