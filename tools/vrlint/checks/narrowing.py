"""narrowing — integer-narrowing casts in the hot paths must be guarded.

PR 6's NodeIndex audit found that a silently wrapped narrowing cast in a
trie flattener aliases unrelated nodes and returns plausible-but-wrong
next hops. The fix pattern is ``checked_node_index()``-style helpers: a
``VR_REQUIRE`` range check in one place, annotated once, and every
caller goes through it.

This check enforces that pattern in the lookup-critical layers
(src/trie, src/dataplane, src/pipeline): every ``static_cast`` to a
narrower integer type must either

* sit inside a ``checked_*`` helper function (the helper carries the
  range check and its own annotation), or
* carry ``// narrow-ok: <why the value fits>`` on the same or the
  preceding line.

Casts to 64-bit or wider, to floating point, and widening casts are out
of scope — only the silent-wraparound shapes are flagged.
"""

from __future__ import annotations

import re
from typing import Iterable

import core

SCOPED_SUBDIRS = {"trie", "dataplane", "pipeline"}

NARROW_CAST = re.compile(
    r"static_cast<\s*(?:std\s*::\s*)?"
    r"(u?int(?:8|16|32)_t|unsigned\s+(?:char|short)|"
    r"signed\s+char|char|short|"
    r"(?:\w+\s*::\s*)*(?:NodeIndex|VnId|NextHop))\s*>")


@core.register
class NarrowingCheck(core.Check):
    name = "narrowing"
    description = ("narrowing static_casts in trie/dataplane/pipeline go "
                   "through checked_* helpers or carry // narrow-ok")

    def run(self, tree: core.SourceTree) -> Iterable[core.Finding]:
        for f in tree.in_dirs("src"):
            if f.src_subdir not in SCOPED_SUBDIRS:
                continue
            for i, raw in enumerate(f.lines):
                code = core.strip_comment(raw)
                m = NARROW_CAST.search(code)
                if not m:
                    continue
                if f.suppressed(i, "narrow-ok"):
                    continue
                span = f.enclosing_function(i + 1)
                if span is not None and span.name.startswith("checked_"):
                    continue
                yield core.Finding(
                    self.name, f.rel, i + 1,
                    f"unguarded narrowing static_cast<{m.group(1)}> — wrap "
                    f"it in a checked_* helper (VR_REQUIRE the range, like "
                    f"trie::checked_node_index) or annotate "
                    f"'// narrow-ok: <why the value fits>'")
