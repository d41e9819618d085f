"""CSV point-cloud files.

Format: header ``x0,x1,...,x{d-1}`` with an optional trailing ``label``
column, one point per row. Floats are written with repr-level precision
(17 significant digits) so write -> read reproduces the array bit for bit.
Writes go through a temporary file in the destination directory followed
by an atomic rename.
"""

from __future__ import annotations

import csv
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import PointCloud


def atomic_write_text(path, text: str) -> None:
    """Write text so readers never observe a half-written file."""
    target = Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", newline="") as stream:
            stream.write(text)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def write_points(cloud: PointCloud, path) -> None:
    """Write a cloud (and its labels, when present) as CSV."""
    header = [f"x{axis}" for axis in range(cloud.dimension)]
    if cloud.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for row in range(cloud.size):
        cells = [format(float(v), ".17g") for v in cloud.points[row]]
        if cloud.labels is not None:
            cells.append(str(int(cloud.labels[row])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_points(path) -> PointCloud:
    """Parse a point CSV back into a cloud; labels column optional."""
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = [cell.strip() for cell in rows[0]]
    has_labels = bool(header) and header[-1] == "label"
    coord_names = header[:-1] if has_labels else header
    expected = [f"x{axis}" for axis in range(len(coord_names))]
    if not coord_names or coord_names != expected:
        raise ValueError(f"{path}: header {header!r} is not x0,x1,...[,label]")
    width = len(header)
    points = []
    labels = []
    for line_number, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(
                f"{path}: line {line_number} has {len(row)} cells, expected {width}"
            )
        try:
            points.append([float(cell) for cell in row[: len(coord_names)]])
            if has_labels:
                labels.append(int(row[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_number}: {exc}") from exc
    if not points:
        raise ValueError(f"{path}: no data rows")
    return PointCloud(
        points=np.array(points, dtype=float),
        labels=np.array(labels, dtype=int) if has_labels else None,
    )
