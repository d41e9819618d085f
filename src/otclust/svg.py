"""Static SVG scatter plots of clustered 2-d point clouds.

Every cluster gets a (shape, color) pair from a fixed 12-entry palette,
assigned by the rank of its representative index so the same clustering
always draws the same figure. Representatives are overdrawn as black
crosses. Output is built purely from formatted strings, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .clustering import ClusteringResult
from .core import PointCloud
from .pointio import atomic_write_text

_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_SHAPES = ("circle", "square", "triangle", "diamond")
PALETTE_SIZE = len(_COLORS) * len(_SHAPES)

_CANVAS = 480.0
_PAD = 28.0
_MARKER = 4.2


def _style(rank: int) -> tuple[str, str]:
    # 4 shapes x 3 colors, coprime cycles: 12 distinct pairs before repeating
    return _SHAPES[rank % len(_SHAPES)], _COLORS[rank % len(_COLORS)]


def _marker(shape: str, x: float, y: float, color: str) -> str:
    r = _MARKER
    if shape == "circle":
        return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="{color}"/>'
    if shape == "square":
        side = 2 * r * 0.9
        return (
            f'<rect x="{x - side / 2:.3f}" y="{y - side / 2:.3f}" '
            f'width="{side:.3f}" height="{side:.3f}" fill="{color}"/>'
        )
    if shape == "triangle":
        pts = [(x, y - r * 1.2), (x - r * 1.1, y + r * 0.9), (x + r * 1.1, y + r * 0.9)]
    else:
        pts = [(x, y - r * 1.3), (x + r * 1.3, y), (x, y + r * 1.3), (x - r * 1.3, y)]
    joined = " ".join(f"{px:.3f},{py:.3f}" for px, py in pts)
    return f'<polygon points="{joined}" fill="{color}"/>'


def _cross(x: float, y: float) -> str:
    arm = _MARKER * 1.6
    return (
        f'<path d="M {x - arm:.3f} {y:.3f} H {x + arm:.3f} '
        f'M {x:.3f} {y - arm:.3f} V {y + arm:.3f}" '
        'stroke="#000000" stroke-width="2.0" fill="none"/>'
    )


def emit_scatter_svg(points: PointCloud, result: ClusteringResult, path) -> None:
    """Draw one marker per point and a black cross per representative."""
    if points.dimension != 2:
        raise ValueError(
            f"scatter needs 2-d points, got dimension {points.dimension}; "
            "project the cloud before plotting"
        )
    if result.assignment.shape != (points.size,):
        raise ValueError("clustering does not match the cloud size")
    if (result.assignment < 0).any() or (result.assignment >= points.size).any():
        raise ValueError("assignment entries must be point indices in [0, n)")
    coords = points.points
    low = coords.min(axis=0)
    high = coords.max(axis=0)
    span = np.maximum(high - low, 1e-9)
    usable = _CANVAS - 2 * _PAD

    def place(p):
        x = _PAD + (p[0] - low[0]) / span[0] * usable
        # SVG y axis points down
        y = _CANVAS - _PAD - (p[1] - low[1]) / span[1] * usable
        return float(x), float(y)

    rank_of = {rep: k for k, rep in enumerate(sorted(result.representatives))}
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f'<rect width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" fill="#ffffff"/>',
    ]
    for i in range(points.size):
        shape, color = _style(rank_of[int(result.assignment[i])])
        x, y = place(coords[i])
        body.append(_marker(shape, x, y, color))
    for rep in sorted(result.representatives):
        x, y = place(coords[rep])
        body.append(_cross(x, y))
    body.append("</svg>")
    atomic_write_text(path, "\n".join(body) + "\n")
