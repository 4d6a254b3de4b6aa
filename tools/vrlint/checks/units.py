"""units — naked ``double``s must not carry a physical dimension.

Three rules:

1. Typed boundary (headers of src/{power,core,fpga,pipeline,multipipe,
   tcam,obs}): no naked-``double`` parameter/member/return with a
   dimensioned name — use the strong quantity types from
   ``common/units.hpp``.
2. Typed return types (.cpp of the same layers): a function definition
   returning naked ``double`` with a dimensioned name is a boundary
   leak even in the implementation file.
3. Suffix convention (everything else under src/): a dimensioned
   ``double`` must spell its unit as a suffix (``power_w``,
   ``freq_mhz``, ...).

Escape: ``// units-ok: <reason>`` on the same or preceding line.
"""

from __future__ import annotations

import re
from typing import Iterable

import core

TYPED_DIRS = {"power", "core", "fpga", "pipeline", "multipipe", "tcam", "obs"}

DIMENSIONED = re.compile(
    r"(?:^|_)(power|freq|frequency|energy|watt|watts|throughput|"
    r"duration|latency|elapsed)(?:_|$)|"
    r"_(w|mw|uw|mhz|ghz|pj|gbps|mbps|bits|kbits|joules)$"
)
SUFFIX_OK = re.compile(
    r"_(w|mw|uw|mhz|ghz|hz|j|pj|pj_per_cycle|gbps|mbps|bits|kbits|bytes|"
    r"pct|percent|ns|us|ms|s|seconds|per_second|per_cycle|per_mhz)$"
)
UNIT_WORDS = {
    "watts", "milliwatts", "microwatts", "megahertz", "picojoules",
    "cycles", "gbps", "coefficient", "packet_bytes",
}
DOUBLE_DECL = re.compile(r"\bdouble\s+(?:&\s*)?([A-Za-z_][A-Za-z0-9_]*)")
RETURN_DECL = re.compile(
    r"\bdouble\s+(?:[A-Za-z_][A-Za-z0-9_]*::)*([A-Za-z_][A-Za-z0-9_]*)\s*\("
)


@core.register
class UnitsCheck(core.Check):
    name = "units"
    description = ("dimensioned doubles use units:: quantity types in "
                   "typed layers and unit suffixes elsewhere")

    def run(self, tree: core.SourceTree) -> Iterable[core.Finding]:
        for f in tree.in_dirs("src"):
            typed = f.src_subdir in TYPED_DIRS
            # units.hpp itself defines the raw conversion helpers.
            if f.rel == "src/common/units.hpp":
                typed = False
            if typed:
                mode = "typed-header" if f.is_header else "typed-impl"
            else:
                mode = "suffix"
            yield from self._lint(f, mode)

    def _lint(self, f: core.SourceFile,
              mode: str) -> Iterable[core.Finding]:
        for i, raw in enumerate(f.lines):
            if f.suppressed(i, "units-ok"):
                continue
            code = core.strip_comment(raw)
            return_names = {m.group(1) for m in RETURN_DECL.finditer(code)}
            for m in DOUBLE_DECL.finditer(code):
                ident = m.group(1)
                if ident in UNIT_WORDS or not DIMENSIONED.search(ident):
                    continue
                typed_violation = mode == "typed-header" or (
                    mode == "typed-impl" and ident in return_names)
                if typed_violation:
                    yield core.Finding(
                        self.name, f.rel, i + 1,
                        f"naked-double dimensioned quantity '{ident}' in a "
                        f"typed layer — use a units:: quantity type (or "
                        f"annotate '// units-ok: <reason>')")
                elif not SUFFIX_OK.search(ident):
                    yield core.Finding(
                        self.name, f.rel, i + 1,
                        f"dimensioned double '{ident}' has no unit suffix "
                        f"(expected e.g. '{ident}_w', '{ident}_mhz')")
