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
from .values import replaced

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
# The PLY name of each type code: its first name above.
_PLY_NAMES = {code: name for name, code in reversed(_PLY_TYPES.items())}
_XYZ = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
_RGB = [("red", "u1"), ("green", "u1"), ("blue", "u1")]


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


def load_cloud(path: str | Path) -> PointCloud:
    """Load a cloud from a .ply file, or any other suffix as whitespace-
    separated xyz text."""
    path = Path(path)
    if path.suffix.lower() != ".ply":
        return _read_xyz(path)
    points = _read_ply(path)
    if points.shape[0] == 0:
        raise CloudFormatError(f"{path}: zero vertices")
    return PointCloud(points)


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
    """Return the vertex positions as an (n, 3) float32 array."""
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
            if parts[1:2] not in (["ascii"], ["binary_little_endian"]):
                raise CloudFormatError(
                    f"{path}:{lineno}: unsupported format {line.strip()!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdecimal():
                raise CloudFormatError(
                    f"{path}:{lineno}: expected 'element <name> <count>' "
                    f"with a count >= 0, got {line.strip()!r}")
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise CloudFormatError(
                    f"{path}:{lineno}: property before any element")
            # Rejects list properties too: theirs is not a scalar type.
            if len(parts) != 3 or parts[1] not in _PLY_TYPES:
                raise CloudFormatError(
                    f"{path}:{lineno}: expected 'property <scalar type> "
                    f"<name>', got {line.strip()!r}")
            elements[-1][2].append((parts[2], _PLY_TYPES[parts[1]]))
    if fmt is None:
        raise CloudFormatError(f"{path}: header missing format line")

    body = data[header_end:]
    points = np.zeros((0, 3), dtype=np.float32)
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
    return points


def export_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write a plain x,y,z binary little-endian PLY."""
    vertices = np.empty(len(cloud), dtype=_XYZ)
    _set_fields(vertices, _XYZ, cloud.points)
    _write_ply(path, vertex=vertices)


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
    n = len(cloud)
    node_ids = sorted(skeleton.nodes)
    row_of = {nid: k for k, nid in enumerate(node_ids)}
    skel_colors = np.full((len(node_ids), 3), 255, dtype=np.uint8)
    edges = []
    for (parent, child), label in sorted(skeleton.edge_labels.items()):
        edges.append((n + row_of[parent], n + row_of[child]))
        skel_colors[row_of[child]] = LABEL_COLORS[label]
    vertices = np.empty(n + len(node_ids), dtype=_XYZ + _RGB)
    _set_fields(vertices[:n], _XYZ, cloud.points)
    _set_fields(vertices[n:], _XYZ, np.asarray(
        [positions[nid] for nid in node_ids], dtype=np.float32))
    for name, _ in _RGB:
        vertices[name][:n] = 128
    _set_fields(vertices[n:], _RGB, skel_colors)
    _write_ply(path, vertex=vertices, edge=np.array(
        edges, dtype=[("vertex1", "<i4"), ("vertex2", "<i4")]))


def _set_fields(records, fields, columns):
    """Write column k of ``columns`` into the k-th of ``fields``."""
    for k, (name, _) in enumerate(fields):
        records[name] = columns[:, k]


def _write_ply(path, **elements):
    """Binary little-endian PLY of the structured arrays ``elements``, one
    element each, in order; their fields name the properties."""
    header = ["ply", "format binary_little_endian 1.0"]
    for name, records in elements.items():
        header.append(f"element {name} {len(records)}")
        header += [f"property {_PLY_NAMES[records.dtype[field].str[1:]]} "
                   f"{field}" for field in records.dtype.names]
    header.append("end_header")
    with replaced(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for records in elements.values():
            records.tofile(fh)
