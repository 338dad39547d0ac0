"""Point-cloud I/O: PLY / xyz-text loading, downsampling, colored export.

The loader tolerates extra vertex properties (scalar only) and both ASCII
and binary little-endian PLY. Positions are stored as float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CloudFormatError
from .labels import LABEL_COLORS

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass(frozen=True)
class PointCloud:
    """Raw 3D points in meters; X across tree width, Y into trellis, Z up."""

    points: np.ndarray  # (N, 3) float32

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float32)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise CloudFormatError(f"points must be (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise CloudFormatError("empty point cloud")
        if not np.all(np.isfinite(pts)):
            raise CloudFormatError("non-finite coordinates in point cloud")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def load_cloud(path: str | Path, format: str | None = None) -> PointCloud:
    """Load a cloud from a .ply or whitespace-separated xyz text file.

    ``format`` is "ply" or "xyz-text"; inferred from the suffix if omitted.
    """
    path = Path(path)
    if format is None:
        format = "ply" if path.suffix.lower() == ".ply" else "xyz-text"
    if format == "ply":
        points, _ = _read_ply(path)
        if points.shape[0] == 0:
            raise CloudFormatError(f"{path}: zero vertices")
        return PointCloud(points)
    if format == "xyz-text":
        return _read_xyz(path)
    raise CloudFormatError(f"unknown cloud format {format!r}")


def _read_xyz(path: Path) -> PointCloud:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise CloudFormatError(
                    f"{path}:{lineno}: expected 3 values, got {len(parts)}")
            try:
                rows.append([float(x) for x in parts])
            except ValueError as exc:
                raise CloudFormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise CloudFormatError(f"{path}: no points")
    return PointCloud(np.asarray(rows, dtype=np.float32))


def _read_ply(path: Path):
    """Return (vertex positions, edge index pairs or None)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"ply"):
        raise CloudFormatError(f"{path}: missing 'ply' magic at byte 0")
    end = data.find(b"end_header")
    if end < 0:
        raise CloudFormatError(f"{path}: no end_header")
    header_end = data.index(b"\n", end) + 1
    header = data[:header_end].decode("ascii", errors="replace")

    fmt = None
    elements = []  # (name, count, [(prop_name, dtype_code)])
    for lineno, line in enumerate(header.splitlines(), start=1):
        parts = line.strip().split()
        if not parts or parts[0] in ("ply", "comment", "obj_info", "end_header"):
            continue
        if parts[0] == "format":
            fmt = parts[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise CloudFormatError(
                    f"{path}:{lineno}: unsupported format {fmt}")
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise CloudFormatError(
                    f"{path}:{lineno}: property before any element")
            if parts[1] == "list":
                raise CloudFormatError(
                    f"{path}:{lineno}: list properties are not supported")
            if parts[1] not in _PLY_TYPES:
                raise CloudFormatError(
                    f"{path}:{lineno}: unknown property type {parts[1]}")
            elements[-1][2].append((parts[2], _PLY_TYPES[parts[1]]))
    if fmt is None:
        raise CloudFormatError(f"{path}: header missing format line")

    body = data[header_end:]
    points = np.zeros((0, 3), dtype=np.float32)
    edges = None
    offset = 0
    text_rows = body.decode("ascii", errors="replace").splitlines() \
        if fmt == "ascii" else None
    row_cursor = 0
    for name, count, props in elements:
        dtype = np.dtype([(p, "<" + c) for p, c in props])
        if fmt == "ascii":
            rows = []
            for k in range(count):
                if row_cursor >= len(text_rows):
                    raise CloudFormatError(
                        f"{path}: truncated element {name} at row {k}")
                vals = text_rows[row_cursor].split()
                row_cursor += 1
                if len(vals) != len(props):
                    raise CloudFormatError(
                        f"{path}: element {name} row {k}: expected "
                        f"{len(props)} values, got {len(vals)}")
                rows.append(tuple(vals))
            arr = np.array(rows, dtype=dtype) if rows else np.zeros(0, dtype)
        else:
            nbytes = dtype.itemsize * count
            if offset + nbytes > len(body):
                raise CloudFormatError(
                    f"{path}: truncated binary element {name} at byte "
                    f"{header_end + offset}")
            arr = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
            offset += nbytes
        if name == "vertex":
            for req in ("x", "y", "z"):
                if req not in arr.dtype.names:
                    raise CloudFormatError(
                        f"{path}: vertex element lacks property {req}")
            points = np.stack(
                [arr["x"], arr["y"], arr["z"]], axis=1).astype(np.float32)
        elif name == "edge" and {"vertex1", "vertex2"} <= set(dtype.names):
            edges = np.stack([arr["vertex1"], arr["vertex2"]],
                             axis=1).astype(np.int64)
    return points, edges


def export_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write a plain x,y,z binary little-endian PLY."""
    _write_ply(path, cloud.points, colors=None, skel_verts=None,
               skel_colors=None, skel_edges=None)


def random_downsample(cloud: PointCloud, n: int, seed: int) -> PointCloud:
    """Uniform sample of n points without replacement, deterministic per seed.

    Returns the cloud unchanged when n >= its size; preserves file order.
    """
    if n < 1:
        raise ValueError(f"downsample size must be >= 1, got {n}")
    if n >= len(cloud):
        return cloud
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(cloud), size=n, replace=False)
    idx.sort()
    return PointCloud(cloud.points[idx])


def crop_cloud(cloud: PointCloud, crop_min, crop_max) -> PointCloud:
    lo = np.asarray(crop_min, dtype=np.float32)
    hi = np.asarray(crop_max, dtype=np.float32)
    mask = np.all((cloud.points >= lo) & (cloud.points <= hi), axis=1)
    if not mask.any():
        raise CloudFormatError("crop box removed every point")
    return PointCloud(cloud.points[mask])


def export_colored(cloud: PointCloud, skeleton, positions,
                   path: str | Path) -> None:
    """Write cloud points (grey) plus label-colored skeleton polylines.

    ``positions`` maps skeleton node id -> 3D position. Skeleton edges are
    emitted as an "edge" element referencing the appended vertices.
    """
    grey = np.full((len(cloud), 3), 128, dtype=np.uint8)
    node_ids = sorted(skeleton.nodes)
    node_row = {nid: len(cloud) + k for k, nid in enumerate(node_ids)}
    skel_verts = np.asarray(
        [positions[nid] for nid in node_ids], dtype=np.float32).reshape(-1, 3)
    vert_colors = np.full((len(node_ids), 3), 255, dtype=np.uint8)
    row_of = {nid: k for k, nid in enumerate(node_ids)}
    edge_rows = []
    for (parent, child), label in sorted(skeleton.edge_labels.items()):
        edge_rows.append((node_row[parent], node_row[child]))
        vert_colors[row_of[child]] = LABEL_COLORS[label]
    _write_ply(path, cloud.points, grey, skel_verts, vert_colors,
               np.asarray(edge_rows, dtype=np.int64).reshape(-1, 2))


def _write_ply(path, points, colors, skel_verts, skel_colors, skel_edges):
    n_skel = 0 if skel_verts is None else skel_verts.shape[0]
    n_vert = points.shape[0] + n_skel
    n_edge = 0 if skel_edges is None else skel_edges.shape[0]
    with_color = colors is not None
    header = ["ply",
              "format binary_little_endian 1.0",
              f"element vertex {n_vert}",
              "property float x", "property float y", "property float z"]
    if with_color:
        header += ["property uchar red", "property uchar green",
                   "property uchar blue"]
    if n_edge or n_skel:
        header += [f"element edge {n_edge}",
                   "property int vertex1", "property int vertex2"]
    header.append("end_header")

    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if with_color:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    vdt = np.dtype(fields)
    varr = np.zeros(n_vert, dtype=vdt)
    all_pts = points if n_skel == 0 else np.vstack([points, skel_verts])
    varr["x"], varr["y"], varr["z"] = all_pts[:, 0], all_pts[:, 1], all_pts[:, 2]
    if with_color:
        all_cols = colors if n_skel == 0 else np.vstack([colors, skel_colors])
        varr["red"], varr["green"], varr["blue"] = (
            all_cols[:, 0], all_cols[:, 1], all_cols[:, 2])
    edt = np.dtype([("vertex1", "<i4"), ("vertex2", "<i4")])
    earr = np.zeros(n_edge, dtype=edt)
    if n_edge:
        earr["vertex1"], earr["vertex2"] = skel_edges[:, 0], skel_edges[:, 1]

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(varr.tobytes())
        fh.write(earr.tobytes())


def read_ply_with_edges(path: str | Path):
    """Load a PLY produced by export_colored; returns (points, edges)."""
    return _read_ply(Path(path))
