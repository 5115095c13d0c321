"""RL008 — raw ``time.perf_counter()`` belongs to :mod:`repro.obs`.

Phase timings are derived from trace spans (see
:func:`repro.obs.trace.phase_timings`), so a timing measured with a
bare ``perf_counter()`` pair lives outside the trace: it cannot show up
in a ``--trace`` export, the summary tree, or the diagnostics report,
and it silently drifts from the span-derived numbers next to it.  All
clock reads go through :mod:`repro.obs.clock` — ``now()`` for a raw
reading, ``stopwatch``/``timed`` for sinks, ``span`` for anything that
should appear in the trace.  ``repro/obs/clock.py`` itself (the single
sanctioned call site) is exempt.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register

#: Path fragments this rule never fires in: the sanctioned clock package.
_EXEMPT_FRAGMENTS = ("repro/obs/", "repro\\obs\\")


@register
class RawPerfCounterRule(Rule):
    rule_id = "RL008"
    title = "raw-perf-counter"
    rationale = (
        "bare time.perf_counter() timings bypass the trace substrate; "
        "use repro.obs (now, stopwatch, span) so every measurement shows "
        "up in --trace exports and the diagnostics report"
    )

    def run(self) -> None:
        if any(fragment in self.context.path for fragment in _EXEMPT_FRAGMENTS):
            return
        self.visit(self.context.tree)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "perf_counter"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self.report(
                node,
                "raw time.perf_counter() outside repro.obs; use "
                "repro.obs.now()/stopwatch/span so the measurement joins "
                "the trace",
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name == "perf_counter":
                    self.report(
                        node,
                        "importing time.perf_counter bypasses repro.obs; "
                        "import repro.obs.now instead",
                    )
        self.generic_visit(node)
