#!/usr/bin/env python3
"""vrlint fixture self-test: every check fires where it must and stays
quiet where it must not.

Runs the real CLI (subprocess, --json) over tests/lint_fixtures — a
miniature repo tree of deliberately-bad snippets, one per check, plus a
clean control — and asserts the *exact* finding set. Exact-set equality
is the point: it proves each check fires on its bad line, AND that the
escape comments (units-ok, det-ok, narrow-ok-with-reason, metric-ok)
suppress their lines, AND that the clean control contributes nothing —
any regression in either direction breaks the equality.

Run:  python3 tools/vrlint/selftest.py
Exit: 0 all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"

# The complete expected output of vrlint over the fixture tree:
# (check, path, line). Keep in lock-step with tests/lint_fixtures/ — the
# fixtures say FINDING on each line expected here.
EXPECTED = {
    # bench/ is scanned like src/.
    ("determinism", "bench/bad_bench_determinism.cpp", 5),
    # srand / random_device / time(nullptr) / system_clock::now, then the
    # unordered_map range-for; the det-ok'd second range-for is absent.
    ("determinism", "src/dataplane/bad_determinism.cpp", 16),
    ("determinism", "src/dataplane/bad_determinism.cpp", 17),
    ("determinism", "src/dataplane/bad_determinism.cpp", 18),
    ("determinism", "src/dataplane/bad_determinism.cpp", 19),
    ("determinism", "src/dataplane/bad_determinism.cpp", 27),
    ("include-hygiene", "src/netbase/bad_include.hpp", 4),
    ("include-hygiene", "src/netbase/bad_include.hpp", 6),
    # Suffix mode: link_throughput flagged, rx_power_w not.
    ("units", "src/netbase/bad_suffix.cpp", 8),
    # bump_unlocked_bug touches counter_ without mu_; the lock_guard,
    # _locked-suffix and constructor paths are absent.
    ("lock-discipline", "src/obs/bad_lock.cpp", 6),
    # Unlisted cycle-model counter; the manifest-listed one is absent.
    ("metrics", "src/dataplane/cycle_metrics.cpp", 10),
    # Unlisted literal + dynamic name; the metric-ok'd call is absent.
    ("metrics", "src/obs/bad_metrics.cpp", 14),
    # Typo'd placement counter; the manifest-listed one is absent.
    ("metrics", "src/placement/bad_placement_metrics.cpp", 10),
    ("metrics", "src/obs/bad_metrics.cpp", 15),
    # Typed-header mode: idle_power flagged, units-ok'd calib_power not.
    ("units", "src/power/bad_units.hpp", 9),
    # Unguarded cast, the cast under a reason-less narrow-ok, and the
    # unguarded cast to a namespace-qualified index type; the checked_*
    # helper and the justified cast are absent.
    ("narrowing", "src/trie/bad_narrowing.cpp", 18),
    ("narrowing", "src/trie/bad_narrowing.cpp", 23),
    ("narrowing", "src/trie/bad_narrowing.cpp", 32),
    # The reason-less tag itself is a violation of the annotation rules.
    ("annotations", "src/trie/bad_narrowing.cpp", 22),
    # Stale manifest entry fixture.stale; fixture.known and the cycle
    # metric are registered.
    ("metrics", "tools/vrlint/metrics.txt", 6),
}

# Every registered check must be represented in the fixtures — a new
# check without a fixture would silently skip this proof.
EXPECTED_CHECKS = {"annotations", "determinism", "include-hygiene",
                   "lock-discipline", "metrics", "narrowing", "units"}


def fail(message: str) -> None:
    print(f"vrlint selftest: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def run_vrlint(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "vrlint"), *argv],
        capture_output=True, text=True, check=False)


def main() -> None:
    proc = run_vrlint("--root", str(FIXTURES), "--json")
    if proc.returncode != 1:
        fail(f"expected exit 1 on the fixture tree, got {proc.returncode}\n"
             f"{proc.stdout}{proc.stderr}")
    got = {(f["check"], f["path"], f["line"])
           for f in json.loads(proc.stdout)}
    if got != EXPECTED:
        lines = ["finding set mismatch"]
        for f in sorted(EXPECTED - got):
            lines.append(f"  missing:    {f[1]}:{f[2]} [{f[0]}]")
        for f in sorted(got - EXPECTED):
            lines.append(f"  unexpected: {f[1]}:{f[2]} [{f[0]}]")
        fail("\n".join(lines))
    if {c for c, _, _ in got} != EXPECTED_CHECKS:
        fail("fixture coverage lost a check")

    # A registered check that never gained a fixture is invisible above.
    proc = run_vrlint("--list")
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line}
    # 'annotations' is framework-level (always on), not a listed check.
    unproven = listed - (EXPECTED_CHECKS - {"annotations"})
    if proc.returncode != 0 or unproven:
        fail(f"checks registered but not exercised by fixtures: "
             f"{sorted(unproven)}")

    # Subset selection still runs the always-on annotation scan.
    proc = run_vrlint("--root", str(FIXTURES), "--checks", "units", "--json")
    subset = {(f["check"], f["path"], f["line"])
              for f in json.loads(proc.stdout)}
    if subset != {f for f in EXPECTED if f[0] in ("units", "annotations")}:
        fail("--checks units did not yield exactly the units + "
             "annotations findings")

    print(f"vrlint selftest: ok ({len(EXPECTED)} findings pinned, "
          f"{len(EXPECTED_CHECKS)} checks proven)")


if __name__ == "__main__":
    main()
