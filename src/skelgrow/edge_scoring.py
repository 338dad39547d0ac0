"""Edge confidence scoring: raster projection plus pluggable scorers.

The CNN of the original system is replaced by (a) a coverage/compactness
heuristic over the raster, (b) an optional user-supplied dense feedforward
model, and (c) an exact score-override file.

Rasters are made in blocks of edges. An edge's neighbourhood is the union
of its two superpoints' balls, each queried once for all of that node's
edges. Its frame and projection are computed on their own, from one
gather of its points into coordinate rows. A block's bucketing,
histogram, normalisation and heuristic score then run as one set of array
operations. The result equals the one-edge computation in
``tests/raster_reference.py`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .config import SearchConfig
from .errors import DegenerateGeometryError, ModelFormatError, OverrideError
from .geometry import grow_angle
from .spatial import GridIndex, ball_union, coordinate_rows
from .superpoints import SuperpointGraph
from .values import is_int, is_number, read_json

#: Raster shape: 32 buckets along the edge, 16 lateral.
GRID_ALONG = 32
GRID_LATERAL = 16


@dataclass(frozen=True)
class ConfidenceMap:
    """Per-edge score in [0, 1] aligned with the graph's edge ids."""

    values: np.ndarray

    def __getitem__(self, edge_id: int) -> float:
        return float(self.values[edge_id])


#: Points per raster block. The bucketing, histogram, peak normalisation
#: and heuristic score of a block's edges run as one set of array
#: operations; blocks are sized by points, not edges, because one dense
#: edge can hold thousands of points.
BLOCK_POINTS = 1 << 16


def _edge_points(graph: SuperpointGraph, index: GridIndex):
    """(edge id, sorted indices of the points near the edge's endpoints)
    of every edge, in order.

    Each node's ball is queried once and dropped after its last edge; an
    edge takes the :func:`ball_union` of its two nodes' balls. The balls
    come from one :meth:`GridIndex.balls` query over the nodes in the order
    of their first edge, whose chunks are computed as the edges need them.
    """
    edges = graph.edges.tolist()
    last = {}  # in the order of each node's first edge
    for k, ends in enumerate(edges):
        for node in ends:
            last[node] = k
    queried = zip(last, index.balls(graph.positions[list(last)]))
    balls = {}
    for k, ends in enumerate(edges):
        for node in ends:
            while node not in balls:
                got, ball = next(queried)
                balls[got] = ball
        idx = ball_union(*(balls[node] for node in ends))
        for node in ends:
            if last[node] == k:
                del balls[node]
        yield k, idx


def _edge_frame(points: np.ndarray, graph: SuperpointGraph, edge: int,
                idx: np.ndarray):
    """(u, v, midpoint, edge vector) of one edge: the x and y coordinates,
    in the edge's frame, of the points ``idx`` near its endpoints (see
    ``reference_frame`` in ``tests/raster_reference.py``). Raises
    DegenerateGeometryError for fewer than 3 points or coincident endpoints.

    The points are gathered once into contiguous coordinate rows, which
    give the mean (:func:`coordinate_rows`), the centred copy and the
    offsets from the midpoint. The SVD, axes and projections run per
    edge: a batched ``@`` or a segmented sum would round differently.
    """
    i, j = graph.edges[edge].tolist()
    pa, pb = graph.positions[i], graph.positions[j]
    if len(idx) < 3:
        raise DegenerateGeometryError(
            f"edge {edge}: only {len(idx)} points near endpoints")

    mid = 0.5 * (pa + pb)
    evec = pb - pa
    elen = math.sqrt(evec.dot(evec))
    if elen == 0:
        raise DegenerateGeometryError(f"edge {edge}: coincident endpoints")
    x_axis = evec / elen

    rows, mean = coordinate_rows(np.take(points, idx, axis=0))
    # Offsets from the midpoint, written into a C-ordered (n, 3) array:
    # the projections below round differently on any other layout. The
    # SVD takes the rows centred in place, transposed: a C-ordered copy
    # gives it the same bits but costs more to write than it saves.
    rel = np.empty((len(idx), 3))
    np.subtract(rows, mid[:, None], out=rel.T)
    rows -= mean[:, None]
    _, _, vt = np.linalg.svd(rows.T, full_matrices=False)
    z_axis = vt[-1] - np.dot(vt[-1], x_axis) * x_axis
    nz = math.sqrt(z_axis.dot(z_axis))
    if nz < 1e-12:
        # Least-significant direction parallel to the edge (collinear
        # points); fall back to the least-aligned world axis.
        k = int(np.argmin(np.abs(x_axis)))
        unit = np.zeros(3)
        unit[k] = 1.0
        z_axis = unit - np.dot(unit, x_axis) * x_axis
        nz = math.sqrt(z_axis.dot(z_axis))
    z_axis = z_axis / nz
    # SVD sign ambiguity: canonicalize toward world +Y, tie-break on +Z.
    dy = z_axis[1]
    if dy < 0 or (dy == 0 and z_axis[2] < 0):
        z_axis = -z_axis
    # z x x as np.cross forms it, in scalar floats: the same bits, faster.
    (z0, z1, z2), (x0, x1, x2) = z_axis.tolist(), x_axis.tolist()
    y_axis = np.array([z1 * x2 - z2 * x1, z2 * x0 - z0 * x2,
                       z0 * x1 - z1 * x0])
    return rel @ x_axis, rel @ y_axis, mid, evec


def _rasterise(us: list, vs: list, r_super: float) -> np.ndarray:
    """(n, 32, 16) max-normalized grids of n edges from their (u, v)
    coordinate arrays, all edges bucketed and histogrammed at once;
    out-of-range points land in the boundary buckets."""
    cells = GRID_ALONG * GRID_LATERAL
    u, v = np.concatenate(us), np.concatenate(vs)
    iu = np.clip(((u + 2 * r_super) / (4 * r_super) * GRID_ALONG).astype(int),
                 0, GRID_ALONG - 1)
    iv = np.clip(((v + r_super) / (2 * r_super) * GRID_LATERAL).astype(int),
                 0, GRID_LATERAL - 1)
    first = np.repeat(np.arange(0, len(us) * cells, cells),
                      [len(a) for a in us])
    grids = np.bincount(first + iu * GRID_LATERAL + iv,
                        minlength=len(us) * cells).reshape(
        len(us), GRID_ALONG, GRID_LATERAL).astype(np.float64)
    # Every edge has at least 3 points, so every peak is positive.
    grids /= grids.max(axis=(1, 2))[:, None, None]
    return grids


def _raster_blocks(cloud: PointCloud, graph: SuperpointGraph,
                   r_super: float, index: GridIndex):
    """(edge ids, (n, 32, 16) grids, [(midpoint, edge vector)] * n) of
    the graph's non-degenerate edges, in order, in blocks of about
    BLOCK_POINTS points."""
    edges, us, vs, frames = [], [], [], []
    points = 0
    for k, idx in _edge_points(graph, index):
        try:
            u, v, mid, evec = _edge_frame(cloud.points, graph, k, idx)
        except DegenerateGeometryError:
            continue
        edges.append(k)
        us.append(u)
        vs.append(v)
        frames.append((mid, evec))
        points += len(u)
        if points >= BLOCK_POINTS:
            yield edges, _rasterise(us, vs, r_super), frames
            edges, us, vs, frames = [], [], [], []
            points = 0
    if edges:
        yield edges, _rasterise(us, vs, r_super), frames


def _heuristic_scores(grids: np.ndarray) -> np.ndarray:
    """The heuristic confidence of each of the (n, 32, 16) grids:
    coverage * compactness over the along-edge columns.

    coverage = fraction of nonempty columns; compactness = 1 minus the
    mean lateral intensity-weighted standard deviation over nonempty
    columns, scaled by half the lateral bucket count.

    Column masses, means and deviations run over the whole block. Grids
    with equal counts of non-empty columns take their mean deviations
    together, as rows of a C-ordered array: a pairwise sum rounds by its
    length, and each row gets the sum its grid would get alone.
    """
    col_mass = grids.sum(axis=2)
    nonempty = col_mass > 0
    lat = np.arange(GRID_LATERAL, dtype=np.float64)
    cols = grids[nonempty]
    mass = col_mass[nonempty]
    mean = (cols * lat).sum(axis=1) / mass
    var = (cols * (lat[None, :] - mean[:, None]) ** 2).sum(axis=1) / mass
    sd = np.sqrt(var)
    counts = nonempty.sum(axis=1)
    starts = np.cumsum(counts) - counts
    mean_sd = np.zeros(len(grids))  # a grid with no column scores 0
    for count in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == count)
        mean_sd[rows] = sd[starts[rows, None] + np.arange(count)].mean(axis=1)
    compactness = np.clip(1.0 - mean_sd / (GRID_LATERAL / 2), 0.0, 1.0)
    return nonempty.mean(axis=1) * compactness


@dataclass(frozen=True)
class DenseModel:
    """Stack of dense layers with ReLU between and a final logistic."""

    weights: tuple  # of (rows, cols) float arrays
    biases: tuple   # of (rows,) float arrays

    @classmethod
    def from_dict(cls, doc: dict) -> "DenseModel":
        layers = doc.get("layers") if isinstance(doc, dict) else None
        if not layers or not isinstance(layers, list):
            raise ModelFormatError("model file has no list of layers")
        ws, bs = [], []
        expected = GRID_ALONG * GRID_LATERAL + 4
        for k, layer in enumerate(layers):
            if not isinstance(layer, dict) or not all(
                    key in layer for key in ("rows", "cols", "weights",
                                             "bias")):
                raise ModelFormatError(
                    f"layer {k}: must be an object with rows, cols, weights "
                    f"and bias")
            rows, cols = layer["rows"], layer["cols"]
            if not is_int(rows) or rows < 1:
                raise ModelFormatError(
                    f"layer {k}: rows must be a positive int, got {rows!r}")
            if not is_int(cols) or cols != expected:
                raise ModelFormatError(
                    f"layer {k}: expected {expected} input columns, "
                    f"got {cols!r}")
            w, b = (np.asarray(layer[key], dtype=object)
                    for key in ("weights", "bias"))
            # A ragged or deeper nesting leaves lists among the elements.
            if (w.shape not in ((rows * cols,), (rows, cols))
                    or b.shape != (rows,)
                    or not all(map(is_number, [*w.flat, *b.flat]))):
                raise ModelFormatError(
                    f"layer {k}: weights must be {rows * cols} finite "
                    f"numbers, flat or as {rows} rows of {cols}, and bias "
                    f"{rows} finite numbers")
            ws.append(w.astype(np.float64).reshape(rows, cols))
            bs.append(b.astype(np.float64))
            expected = rows
        if expected != 1:
            raise ModelFormatError(
                f"final layer must have 1 output row, got {expected}")
        return cls(weights=tuple(ws), biases=tuple(bs))

    def forward(self, x: np.ndarray) -> float:
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = w @ x + b
            if k + 1 < len(self.weights):
                x = np.maximum(x, 0.0)
        try:
            return 1.0 / (1.0 + math.exp(-float(x[0])))
        except OverflowError:  # a logit below about -709
            return 0.0


#: Why an override table can miss or exceed the graph's edges.
_OVERRIDE_HINT = (
    "An override table is keyed to the superpoint graph of one cloud, "
    "r_super, --points, seed and crop; `skelgrow synth` writes it for the "
    "default r_super and its own --points")


def edge_key(i: int, j: int) -> str:
    a, b = (i, j) if i < j else (j, i)
    return f"{a}-{b}"


def load_override(path: str | Path) -> dict:
    """An override file's ``scores`` table; score_all_edges checks it."""
    doc = read_json(path)
    scores = doc.get("scores") if isinstance(doc, dict) else None
    if not isinstance(scores, dict):
        raise OverrideError("override file must contain a 'scores' object")
    return scores


def check_scores(values: list, num_edges: int, what: str) -> np.ndarray:
    """``values`` as a float array, once they are one number in [0, 1] per
    graph edge; raises OverrideError, naming the scores ``what``,
    otherwise. Bools and NaN are rejected."""
    if len(values) != num_edges:
        raise OverrideError(
            f"{what} has {len(values)} scores for {num_edges} graph edges")
    bad = [k for k, v in enumerate(values)
           if not (is_number(v) and 0 <= v <= 1)]
    if bad:
        raise OverrideError(
            f"{what} scores must lie in [0, 1]; {len(bad)} are not numbers "
            f"in that range (edges {bad[:20]})")
    return np.array(values, dtype=np.float64)


def score_all_edges(cloud: PointCloud | None, graph: SuperpointGraph,
                    scorer, cfg: SearchConfig,
                    index: GridIndex | None = None) -> ConfidenceMap:
    """Score every dense edge, in blocks of edges (see BLOCK_POINTS), each
    as ``tests/raster_reference.py`` does alone; ``index`` is a GridIndex
    over the cloud with radius r_super, if given.

    ``scorer`` is ("heuristic",), ("model", DenseModel) or ("override",
    {"i-j": score}), each loaded by the caller (``load_override``,
    ``DenseModel.from_dict``). Degenerate edges score 0; an override must
    cover every edge.
    """
    kind = scorer[0]
    if kind == "override":
        table = scorer[1]
        keys = [edge_key(i, j) for i, j in graph.edges.tolist()]
        missing = [key for key in keys if key not in table]
        if missing:
            raise OverrideError(
                f"override file missing {len(missing)} edges: "
                f"{missing[:20]}. {_OVERRIDE_HINT}")
        extra = sorted(table.keys() - set(keys))
        if extra:
            raise OverrideError(
                f"override file has {len(extra)} keys for edges the graph "
                f"lacks: {extra[:20]}. {_OVERRIDE_HINT}")
        return ConfidenceMap(values=check_scores(
            [table[key] for key in keys], graph.num_edges, "override"))

    if kind == "model":
        model = scorer[1]

        def score_block(grids, frames):
            return [model.forward(np.concatenate(
                        [grid.reshape(-1), mid, [grow_angle(evec)]]))
                    for grid, (mid, evec) in zip(grids, frames)]
    elif kind == "heuristic":
        def score_block(grids, frames):
            return _heuristic_scores(grids)
    else:
        raise ValueError(f"unknown scorer kind {kind!r}")

    if cloud is None:
        raise ValueError(f"{kind} scorer needs the point cloud")
    index = index or GridIndex(cloud.points, cfg.r_super)
    values = np.zeros(graph.num_edges, dtype=np.float64)
    for edges, grids, frames in _raster_blocks(cloud, graph, cfg.r_super,
                                               index):
        values[edges] = score_block(grids, frames)
    return ConfidenceMap(values=values)
