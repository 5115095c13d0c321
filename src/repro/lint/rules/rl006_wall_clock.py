"""RL006 — timings use the monotonic clock, not wall-clock time.

The per-phase timings in :class:`repro.core.result.EBRRResult` and the
runtime figures of the evaluation harness are differences of clock
readings.  ``time.time()`` is wall-clock: NTP slews and DST jumps make
its differences wrong by arbitrary amounts, and its resolution is
platform-dependent.  Durations are measured through :mod:`repro.obs`
(``now``/``stopwatch``/``timed``, which wrap ``time.perf_counter()``) —
this rule flags ``time.time()`` calls and ``from time import time`` imports.
Wall-clock timestamps for *labelling* a report (not measuring a
duration) are legitimate; suppress those lines explicitly.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register


@register
class WallClockTimingRule(Rule):
    rule_id = "RL006"
    title = "wall-clock-timing"
    rationale = (
        "time.time() differences drift under NTP/DST; measure durations "
        "with time.perf_counter() via repro.obs (now, stopwatch, timed)"
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self.report(
                node,
                "time.time() used for timing; use time.perf_counter() "
                "(see repro.obs.stopwatch/timed)",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self.report(
                        node,
                        "importing time.time invites wall-clock timing; "
                        "import perf_counter instead",
                    )
        self.generic_visit(node)
