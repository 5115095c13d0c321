"""Process-pool execution layer for EBRR.

One fan-out shape, with a deterministic reduce (results are
bit-identical to the serial loop):

* :func:`~repro.parallel.sweep.sweep_plans` — fan a parameter grid of
  full EBRR runs over workers sharing one preprocessing.

Algorithm 2 itself runs in one process: its batched query-rooted balls
left nothing for a pool to win (see DESIGN.md "Parallel substrate").
"""

from .sweep import sweep_plans

__all__ = ["sweep_plans"]
