#!/usr/bin/env bash
# Checks the worst model error that a self-checking bench printed against
# the paper's ±3 % bound (Fig. 7):
#
#   tools/error_bound_check.sh <saved-stdout> <label>
#
# <saved-stdout> is the stdout that tools/save_stdout.sh kept from the
# binary's run; <label> starts the line that reports the worst |error| in
# percent, e.g. "max |error| over the sweep:" for fig7_model_error. Fails
# when no line starts with <label> or its value is above 3.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <saved-stdout> <label>" >&2
  exit 2
fi

saved=$1
label=$2

if [[ ! -f "$saved" ]]; then
  echo "error_bound_check: saved stdout missing: $saved" >&2
  exit 2
fi

awk -v label="$label" '
  index($0, label) == 1 { worst = substr($0, length(label) + 1) + 0; found = 1 }
  END {
    if (!found) {
      print "error_bound_check: no line starts with \"" label "\"" > "/dev/stderr"
      exit 1
    }
    printf "error_bound_check: worst |error| %g %% (paper bound: 3 %%)\n", worst
    exit worst <= 3 ? 0 : 1
  }' "$saved"
