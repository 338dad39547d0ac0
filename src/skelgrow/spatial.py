"""Uniform-grid neighbour index over a fixed point set, numpy only.

:meth:`GridIndex.balls` answers many ball queries in one pass and
:meth:`GridIndex.pairs` finds every pair within r; both walk the same
sorted cell runs.
"""

import numpy as np

#: Most cells along one axis, so that cell keys stay far inside int64.
MAX_CELLS = 2 ** 20
#: Rows per block where the whole cloud is walked; keeps temporaries small.
BLOCK_ROWS = 2 ** 16
#: Most candidate points that :meth:`GridIndex.balls` tests in one pass,
#: unless a single centre has more; its temporaries take about 60 bytes
#: per candidate.
BALL_CHUNK = 2 ** 12
#: The nine (x, y) cell columns around a cell; the three z cells of a
#: column have consecutive keys, so each column is one run of points.
_DX, _DY = np.indices((3, 3)).reshape(2, 9) - 1


class GridIndex:
    """Points within radius r of a centre, by a uniform grid.

    Membership is bit-identical to ``scipy.spatial.cKDTree`` with p=2: a
    point is in when ``(dx*dx + dy*dy) + dz*dz <= r*r`` in float64. Cells
    are a hair wider than r, so that rounding in ``floor((p - lo) / cell)``
    never puts a true neighbour two cells away, and wider still over an
    extent of more than MAX_CELLS cells, so that keys cannot overflow.
    """

    def __init__(self, points, r: float):
        if not r > 0:
            raise ValueError("radius must be > 0")
        self.points, self.r = np.asarray(points), float(r)
        lo, hi = coordinate_bounds(self.points)
        self._lo = lo.astype(np.float64)
        span = hi - self._lo
        self._cell = max(self.r * (1 + 1e-6), float(span.max()) / MAX_CELLS)
        # An empty cell on each side, so that every cell has 26 neighbours.
        self._dims = np.floor(span / self._cell).astype(np.int64) + 3
        self._columns = self._key(_DX, _DY, 0)  # key offsets of the nine
        keys = np.concatenate([self._key(*self._cells(block))
                               for block in _blocks(self.points)])
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        self._sorted = np.take(self.points.T, self._order, axis=1)

    def _cells(self, coords):
        """x, y and z cells of (k, 3) points, as three rows; a point
        outside the grid takes the nearest cell inside it, whose
        neighbours cover its own. Runs along contiguous coordinate rows."""
        cells = np.subtract(np.asarray(coords).T, self._lo[:, None],
                            dtype=np.float64, order="C")
        cells /= self._cell
        np.floor(cells, out=cells)
        cells += 1
        np.maximum(cells, 1, out=cells)
        np.minimum(cells, self._dims[:, None] - 2, out=cells)
        return cells.astype(np.int64)

    def _key(self, x, y, z):
        return (x * self._dims[1] + y) * self._dims[2] + z

    def _runs(self, centres):
        """Start and end, in key order, of the points in the 27 cells
        around each of the (q, 3) centres, as (q, 9) arrays: one run per
        column of three consecutive z cells."""
        x, y, z = self._cells(centres)
        first = self._key(x, y, z - 1)[:, None] + self._columns
        return (np.searchsorted(self._keys, first),
                np.searchsorted(self._keys, first + 2, "right"))

    def _inside(self, points, centres):
        """Whether each column of the (3, k) ``points`` lies within r of
        ``centres``, broadcast against it."""
        return self._within(np.subtract(points, centres, dtype=np.float64))

    def _within(self, d):
        """Whether each column of the (3, k) float64 offsets ``d`` is at
        most r long; squares ``d`` in place."""
        d *= d
        return (d[0] + d[1]) + d[2] <= self.r * self.r

    def ball(self, centre) -> np.ndarray:
        """Sorted indices of the points within r of ``centre``: the
        one-centre case of :meth:`balls`."""
        return next(self.balls(np.reshape(centre, (1, 3))))

    def balls(self, centres):
        """Yield the sorted indices of the points within r of each of the
        (q, 3) ``centres``, in order.

        The candidates, the points in the nine column runs around each
        centre, are gathered, tested and sorted for consecutive centres
        together, in chunks of at most BALL_CHUNK candidates (or one
        centre), and each chunk is computed only when its first ball is
        asked for, so memory stays bounded however dense the cloud. A
        centre's runs are disjoint, so each point is met once per centre.
        Each ball is an array of its own, so that keeping one keeps no
        other alive.
        """
        centres = np.asarray(centres, dtype=np.float64).reshape(-1, 3)
        start, end = self._runs(centres)
        cum = np.cumsum((end - start).sum(axis=1))
        first = 0
        while first < len(centres):
            # The chunk ends before the centre whose candidates, with the
            # chunk's earlier ones, would pass BALL_CHUNK.
            done = cum[first - 1] if first else 0
            last = max(first + 1, int(np.searchsorted(
                cum, done + BALL_CHUNK, "right")))
            yield from self._chunk_balls(centres[first:last],
                                         start[first:last], end[first:last])
            first = last

    def _chunk_balls(self, centres, start, end) -> list[np.ndarray]:
        """:meth:`balls` of the (q, 3) centres whose column runs start and
        end at ``start`` and ``end`` (q, 9), in one pass: the runs are
        gathered as slices and tested by :meth:`_within`."""
        runs = [slice(s, e) for s, e in zip(start.ravel().tolist(),
                                            end.ravel().tolist()) if s < e]
        runs = runs or [slice(0, 0)]
        near = np.concatenate([self._sorted[:, run] for run in runs], axis=1)
        found = np.concatenate([self._order[run] for run in runs])
        if len(centres) == 1:
            found = np.compress(self._inside(near, centres.T), found)
            found.sort()
            return [found]
        # Several centres: each candidate's offsets from its own centre,
        # one coordinate row at a time.
        per_centre = (end - start).sum(axis=1)
        d = np.empty(near.shape)
        for row, coord, out in zip(near, centres.T, d):
            np.subtract(row, np.repeat(coord, per_centre), out=out)
        inside = self._within(d)
        # Sorting owner * n + index sorts each centre's indices in place.
        owner = np.compress(inside, np.repeat(np.arange(len(centres)),
                                              per_centre))
        offset = owner * len(self.points)
        found = np.compress(inside, found)
        found += offset
        found.sort()
        found -= offset
        bounds = np.cumsum(np.bincount(owner, minlength=len(centres)))
        return [found[a:b].copy() for a, b in zip(
            [0, *bounds[:-1].tolist()], bounds.tolist())]

    def pairs(self) -> np.ndarray:
        """Sorted (m, 2) index pairs i < j within r of each other."""
        n = len(self.points)
        start, end = self._runs(self.points)
        lengths = (end - start).ravel()
        pos = np.arange(lengths.sum()) + np.repeat(
            start.ravel() - (np.cumsum(lengths) - lengths), lengths)
        i = np.repeat(np.arange(n).repeat(_DX.size), lengths)
        inside = self._inside(self._sorted[:, pos], self.points[i].T)
        key = np.sort(i[inside] * n + self._order[pos[inside]])
        key = key[key // n < key % n]
        return np.stack([key // n, key % n], axis=1)


def _blocks(points):
    return (points[k:k + BLOCK_ROWS]
            for k in range(0, len(points), BLOCK_ROWS))


def coordinate_bounds(points) -> tuple[np.ndarray, np.ndarray]:
    """``points.min(axis=0)`` and ``points.max(axis=0)`` of (n, 3) points,
    taken along contiguous coordinate rows one block at a time: an axis-0
    reduction runs a 3-wide inner loop, and a whole transposed copy would
    cost as much memory as the points."""
    lo, hi = zip(*((rows.min(axis=1), rows.max(axis=1)) for rows in (
        np.ascontiguousarray(block.T) for block in _blocks(points))))
    return np.min(lo, axis=0), np.max(hi, axis=0)


def ball_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted index arrays, such as two balls: the
    points within r of either of two centres are
    ``ball_union(g.ball(p), g.ball(q))``."""
    both = np.concatenate([a, b])
    both.sort(kind="stable")  # a linear merge of the two sorted runs
    keep = np.empty(len(both), dtype=bool)
    keep[:1] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


def coordinate_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """A (3, n) float64 copy of the (n, 3) ``points``, one contiguous row
    per coordinate, and their mean, bit for bit
    ``points.astype(np.float64).mean(axis=0)``.

    That mean adds the points one after another, so each row's sum is
    taken with a sequential ``cumsum``; a row's own ``sum`` adds pairwise
    and rounds differently.
    """
    rows = np.array(points.T, dtype=np.float64, order="C")
    return rows, np.cumsum(rows, axis=1)[:, -1] / rows.shape[1]
