"""A per-edge edge rasteriser and heuristic, written one edge at a time.

The package rasterises and scores edges in blocks; the tests check its
grids and scores against these, bit for bit.
"""

import numpy as np

from skelgrow.edge_scoring import GRID_ALONG, GRID_LATERAL
from skelgrow.spatial import ball_union


def reference_frame(cloud, graph, edge: int, index):
    """(u, v, midpoint, edge vector) of one edge: the coordinates of its
    points along and across it, or None when the edge is degenerate
    (fewer than 3 points, coincident endpoints). ``index`` is a GridIndex
    over the cloud with radius r_super."""
    i, j = (int(v) for v in graph.edges[edge])
    pa, pb = graph.positions[i], graph.positions[j]
    idx = ball_union(index.ball(pa), index.ball(pb))
    if len(idx) < 3:
        return None
    local = cloud.points[idx].astype(np.float64)
    mid = 0.5 * (pa + pb)
    evec = pb - pa
    elen = np.linalg.norm(evec)
    if elen == 0:
        return None
    x_axis = evec / elen
    _, _, vt = np.linalg.svd(local - local.mean(axis=0), full_matrices=False)
    z_axis = vt[-1] - np.dot(vt[-1], x_axis) * x_axis
    nz = np.linalg.norm(z_axis)
    if nz < 1e-12:
        unit = np.zeros(3)
        unit[int(np.argmin(np.abs(x_axis)))] = 1.0
        z_axis = unit - np.dot(unit, x_axis) * x_axis
        nz = np.linalg.norm(z_axis)
    z_axis = z_axis / nz
    if z_axis[1] < 0 or (z_axis[1] == 0 and z_axis[2] < 0):
        z_axis = -z_axis
    y_axis = np.cross(z_axis, x_axis)
    rel = local - mid
    return rel @ x_axis, rel @ y_axis, mid, evec


def reference_grid(cloud, graph, edge: int, r_super: float, index):
    """The (32, 16) max-normalized raster of one edge, or None when the
    edge is degenerate; ``index`` as in :func:`reference_frame`."""
    frame = reference_frame(cloud, graph, edge, index)
    if frame is None:
        return None
    u, v, _, _ = frame
    iu = np.clip(((u + 2 * r_super) / (4 * r_super) * GRID_ALONG).astype(int),
                 0, GRID_ALONG - 1)
    iv = np.clip(((v + r_super) / (2 * r_super) * GRID_LATERAL).astype(int),
                 0, GRID_LATERAL - 1)
    grid = np.zeros((GRID_ALONG, GRID_LATERAL))
    np.add.at(grid, (iu, iv), 1.0)
    return grid / grid.max()


def reference_heuristic(grid) -> float:
    """Coverage times compactness of one grid, column by column."""
    col_mass = grid.sum(axis=1)
    nonempty = col_mass > 0
    coverage = float(nonempty.mean())
    if coverage == 0.0:
        return 0.0
    lat = np.arange(GRID_LATERAL, dtype=np.float64)
    cols = grid[nonempty]
    mass = col_mass[nonempty]
    mean = (cols * lat).sum(axis=1) / mass
    var = (cols * (lat[None, :] - mean[:, None]) ** 2).sum(axis=1) / mass
    compactness = 1.0 - float(np.sqrt(var).mean()) / (GRID_LATERAL / 2)
    compactness = min(max(compactness, 0.0), 1.0)
    return min(max(coverage * compactness, 0.0), 1.0)
