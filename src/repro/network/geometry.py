"""Planar geometry helpers shared by the network package.

Coordinates throughout the repository are planar ``(x, y)`` pairs in
kilometres.  The paper's datasets use projected road networks where edge
costs are distances in kilometres; keeping a single unit everywhere lets
the Euclidean metric act as a valid lower bound of the network metric,
which Algorithm 4 (the lower-bound price) relies on.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]


def euclidean(a: Point, b: Point) -> float:
    """Straight-line distance between two points, in the same unit as
    the coordinates (kilometres by convention)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def midpoint(a: Point, b: Point) -> Point:
    """The midpoint of segment ``ab``."""
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def bounding_box(points: Iterable[Point]) -> Tuple[float, float, float, float]:
    """Return ``(min_x, min_y, max_x, max_y)`` over ``points``.

    Raises:
        ValueError: if ``points`` is empty.
    """
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_box() requires at least one point")
    min_x = max_x = first[0]
    min_y = max_y = first[1]
    for x, y in iterator:
        min_x = min(min_x, x)
        max_x = max(max_x, x)
        min_y = min(min_y, y)
        max_y = max(max_y, y)
    return (min_x, min_y, max_x, max_y)


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """The point a ``fraction`` of the way from ``a`` to ``b``.

    ``fraction`` is clamped to ``[0, 1]`` so callers can pass ratios
    computed from path costs without worrying about rounding overshoot.
    """
    t = min(1.0, max(0.0, fraction))
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def polyline_length(points: Sequence[Point]) -> float:
    """Total Euclidean length of the polyline through ``points``."""
    return sum(euclidean(points[i], points[i + 1]) for i in range(len(points) - 1))


def points_within_radius(
    points: Sequence[Point], center: Point, radius: float
) -> List[int]:
    """Indices of ``points`` whose Euclidean distance to ``center`` is at
    most ``radius``.  A simple linear scan; used only on small sets.
    """
    cx, cy = center
    r2 = radius * radius
    result = []
    for i, (x, y) in enumerate(points):
        dx = x - cx
        dy = y - cy
        if dx * dx + dy * dy <= r2:
            result.append(i)
    return result


#: Pairs (sample, node) examined per chunk of :meth:`GridIndex.nearest_many`,
#: which bounds its temporary arrays to a few MB.
_PAIR_BUDGET = 1 << 18

#: A batched answer is accepted only if it beats every other node of its
#: 3x3 cell block by more than this relative margin on squared distance.
_TIE_MARGIN = 1e-9


class GridIndex:
    """A uniform spatial hash over planar points.

    Supports nearest-point and radius queries in roughly O(1) for
    uniformly scattered data.  Used by the demand generators to snap
    sampled locations to network nodes, and by the case-study coverage
    metric; the core EBRR algorithm itself never needs it (it always
    measures network, not Euclidean, costs).
    """

    def __init__(self, points: Sequence[Point], cell_size: float = 0.5) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._points = list(points)
        self._cell = cell_size
        self._buckets: dict = {}
        for idx, (x, y) in enumerate(self._points):
            self._buckets.setdefault(self._key(x, y), []).append(idx)
        # The buckets never change after construction, so neither does
        # the ring count that bounds a scalar search.
        self._max_ring = 0
        if self._buckets:
            kxs = [k[0] for k in self._buckets]
            kys = [k[1] for k in self._buckets]
            self._max_ring = (max(kxs) - min(kxs)) + (max(kys) - min(kys)) + 2
        self._cells: "_CellTable | None" = None

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self._cell)), int(math.floor(y / self._cell)))

    def __len__(self) -> int:
        return len(self._points)

    def nearest(self, point: Point) -> int:
        """Index of the point nearest to ``point``.

        Expands the ring of visited cells until a candidate is found and
        then one further ring to guarantee correctness near cell borders.

        Raises:
            ValueError: if the index is empty.
        """
        if not self._points:
            raise ValueError("nearest() on an empty GridIndex")
        cx, cy = self._key(point[0], point[1])
        best_idx = -1
        best_d2 = math.inf
        ring = 0
        while ring <= self._max_ring:
            found_any = False
            for key in self._ring_keys(cx, cy, ring):
                for idx in self._buckets.get(key, ()):
                    found_any = True
                    px, py = self._points[idx]
                    d2 = (px - point[0]) ** 2 + (py - point[1]) ** 2
                    if d2 < best_d2:
                        best_d2 = d2
                        best_idx = idx
            if best_idx >= 0 and not found_any and ring * self._cell > math.sqrt(best_d2) + self._cell:
                break
            if best_idx >= 0 and (ring - 1) * self._cell > math.sqrt(best_d2):
                break
            ring += 1
        return best_idx

    def nearest_many(self, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
        """:meth:`nearest` of every ``(xs[i], ys[i])``, as an int64 array
        equal element for element to ``[nearest(p) for p in zip(xs, ys)]``.

        One numpy pass takes each sample's best point in the 3x3 cell
        block around it.  Every point outside that block is at least one
        cell away, so the block's best is the nearest point when it is
        closer than one cell; when it also beats every other point of
        the block by a clear relative margin, the scalar ring order
        cannot tie-break it differently.  Every other sample (a near
        tie, no point within a cell) is answered by :meth:`nearest`,
        which stays the reference.

        Raises:
            ValueError: if ``xs`` and ``ys`` differ in length, or the
                index is empty and there are samples.
        """
        qx = np.asarray(xs, dtype=np.float64).ravel()
        qy = np.asarray(ys, dtype=np.float64).ravel()
        if qx.size != qy.size:
            raise ValueError(
                f"nearest_many() got {qx.size} xs but {qy.size} ys"
            )
        out = np.full(qx.size, -1, dtype=np.int64)
        if qx.size == 0:
            return out
        if not self._points:
            raise ValueError("nearest_many() on an empty GridIndex")
        if self._cells is None:
            self._cells = _CellTable(self._points, self._cell)
        for start in range(0, qx.size, _SAMPLE_BLOCK):
            stop = start + _SAMPLE_BLOCK
            self._cells.snap(qx[start:stop], qy[start:stop], out[start:stop])
        for i in np.flatnonzero(out < 0).tolist():
            out[i] = self.nearest((float(qx[i]), float(qy[i])))
        return out

    def within(self, point: Point, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of ``point``."""
        result = []
        r2 = radius * radius
        cx_lo, cy_lo = self._key(point[0] - radius, point[1] - radius)
        cx_hi, cy_hi = self._key(point[0] + radius, point[1] + radius)
        for kx in range(cx_lo, cx_hi + 1):
            for ky in range(cy_lo, cy_hi + 1):
                for idx in self._buckets.get((kx, ky), ()):
                    px, py = self._points[idx]
                    if (px - point[0]) ** 2 + (py - point[1]) ** 2 <= r2:
                        result.append(idx)
        return result

    @staticmethod
    def _ring_keys(cx: int, cy: int, ring: int):
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)


#: Samples whose 3x3 block slices are looked up at once.
_SAMPLE_BLOCK = 1 << 15

_BLOCK_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


class _CellTable:
    """A :class:`GridIndex`'s points as numpy arrays sorted by cell, for
    :meth:`GridIndex.nearest_many`.  Cell ``(kx, ky)`` is the same
    ``floor(coord / cell)`` key the buckets use, offset by one so that
    every neighbour of an occupied cell has a non-negative id."""

    def __init__(self, points: Sequence[Point], cell: float) -> None:
        xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.x = xy[:, 0].copy()
        self.y = xy[:, 1].copy()
        self.cell = cell
        kx = np.floor(self.x / cell)
        ky = np.floor(self.y / cell)
        self.kx0 = kx.min() - 1.0
        self.ky0 = ky.min() - 1.0
        self.width = int(kx.max() - self.kx0) + 2
        self.height = int(ky.max() - self.ky0) + 2
        ids = (kx - self.kx0).astype(np.int64) * self.height + (
            ky - self.ky0
        ).astype(np.int64)
        self.order = np.argsort(ids, kind="stable")
        self.cells, starts = np.unique(ids[self.order], return_index=True)
        self.starts = starts.astype(np.int64)
        self.ends = np.append(self.starts[1:], ids.size)

    def snap(self, qx: np.ndarray, qy: np.ndarray, out: np.ndarray) -> None:
        """Write the accepted nearest point of each sample into ``out``
        (a view); rejected samples keep ``-1``."""
        gx = np.clip(np.floor(qx / self.cell) - self.kx0, -1, self.width)
        gy = np.clip(np.floor(qy / self.cell) - self.ky0, -1, self.height)
        gx = gx.astype(np.int64)
        gy = gy.astype(np.int64)
        # Per sample and block cell: where the cell's points start in
        # the sorted order, and how many there are.
        lo = np.zeros((qx.size, len(_BLOCK_OFFSETS)), dtype=np.int64)
        size = np.zeros_like(lo)
        last = self.cells.size - 1
        for j, (dx, dy) in enumerate(_BLOCK_OFFSETS):
            cx = gx + dx
            cy = gy + dy
            cid = cx * self.height + cy
            pos = np.minimum(np.searchsorted(self.cells, cid), last)
            hit = (
                (cx >= 0) & (cx < self.width) & (cy >= 0) & (cy < self.height)
                & (self.cells[pos] == cid)
            )
            lo[:, j] = np.where(hit, self.starts[pos], 0)
            size[:, j] = np.where(hit, self.ends[pos] - self.starts[pos], 0)
        ends = np.cumsum(size.sum(axis=1))
        start = 0
        while start < qx.size:
            done = ends[start - 1] if start else 0
            stop = max(
                start + 1,
                int(np.searchsorted(ends, done + _PAIR_BUDGET, side="right")),
            )
            self._snap_pairs(
                qx[start:stop], qy[start:stop], lo[start:stop],
                size[start:stop], out[start:stop],
            )
            start = stop

    def _snap_pairs(
        self,
        qx: np.ndarray,
        qy: np.ndarray,
        lo: np.ndarray,
        size: np.ndarray,
        out: np.ndarray,
    ) -> None:
        lens = size.ravel()
        total = int(lens.sum())
        if total == 0:
            return
        # Every (sample, point-in-block) pair, sample-major.
        counts = size.sum(axis=1)
        sample = np.repeat(np.arange(qx.size), counts)
        offset = np.repeat(lo.ravel() - (np.cumsum(lens) - lens), lens)
        node = self.order[offset + np.arange(total)]
        d2 = (self.x[node] - qx[sample]) ** 2 + (self.y[node] - qy[sample]) ** 2
        has = counts > 0
        firsts = (np.cumsum(counts) - counts)[has]
        best = np.minimum.reduceat(d2, firsts)
        best_of_pair = np.repeat(best, counts[has])
        near = np.add.reduceat(
            (d2 <= best_of_pair * (1.0 + _TIE_MARGIN)).astype(np.int64), firsts
        )
        winner = np.maximum.reduceat(
            np.where(d2 == best_of_pair, np.arange(total), -1), firsts
        )
        accept = (near == 1) & (
            best < self.cell * self.cell * (1.0 - _TIE_MARGIN)
        )
        out[np.flatnonzero(has)[accept]] = node[winner[accept]]
