"""Minimal deterministic SVG emitters for the report figures.

Figures are plain generated SVG strings with the underlying data table
embedded in an XML comment, so tests (and humans) can diff them.
"""

from __future__ import annotations

import numpy as np


def _fmt(x):
    return f"{float(x):.6f}"


def _header(width, height, title):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')
    return parts


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _data_comment(rows):
    body = "\n".join(",".join(str(v) for v in row) for row in rows)
    return f"<!--data\n{body}\n-->"


def svg_bar_chart(labels, values, title="") -> str:
    """Vertical bars in input order (e.g. input, cnn1, cnn2, rnn1, ...) on
    a 0-1 axis; a value outside it is drawn clipped."""
    if not labels or len(labels) != len(values):
        raise ValueError("need matching non-empty labels and values")
    values = [float(v) for v in values]
    width, height = 640, 360
    margin_l, margin_b, margin_t = 50, 50, 30
    plot_w = width - margin_l - 20
    plot_h = height - margin_t - margin_b
    slot = plot_w / len(values)
    bar_w = slot * 0.7
    parts = _header(width, height, title)
    parts.append(_data_comment([("label", "value")] +
                               [(l, _fmt(v)) for l, v in zip(labels, values)]))
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
        f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>')
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>')
    for i, (label, value) in enumerate(zip(labels, values)):
        h = plot_h * min(max(value, 0.0), 1.0)
        x = margin_l + i * slot + (slot - bar_w) / 2
        y = margin_t + plot_h - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="#4878a8"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{margin_t + plot_h + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{_escape(label)}</text>')
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f'{_fmt(value)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def svg_heatmap(matrix, row_labels, col_labels, title="") -> str:
    """Row-normalized heatmap (confusion-matrix style)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n_rows, n_cols = matrix.shape
    cell = 28
    margin_l, margin_t = 110, 90
    width = margin_l + cell * n_cols + 20
    height = margin_t + cell * n_rows + 20
    row_sums = matrix.sum(axis=1)
    shares = matrix / np.where(row_sums > 0, row_sums, 1.0)[:, None]
    parts = _header(width, height, title)
    parts.append(_data_comment(
        [("",) + tuple(col_labels)] +
        [(row_labels[i],) + tuple(_fmt(v) for v in matrix[i])
         for i in range(n_rows)]))
    for i in range(n_rows):
        for j in range(n_cols):
            v = shares[i, j]
            shade = int(round(255 * (1.0 - v)))
            parts.append(
                f'<rect x="{margin_l + j * cell}" y="{margin_t + i * cell}" '
                f'width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="#ccc"/>')
        parts.append(
            f'<text x="{margin_l - 6}" y="{margin_t + i * cell + cell * 0.65:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f'{_escape(row_labels[i])}</text>')
    for j in range(n_cols):
        cx = margin_l + j * cell + cell / 2
        parts.append(
            f'<text x="{cx:.1f}" y="{margin_t - 8}" text-anchor="start" '
            f'font-family="sans-serif" font-size="11" '
            f'transform="rotate(-45 {cx:.1f} {margin_t - 8})">'
            f'{_escape(col_labels[j])}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def svg_scatter(coords, point_labels, title="") -> str:
    """Labelled scatter of 2-D points (cluster centroids)."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be k x 2")
    n = coords.shape[0]
    width = height = 640
    margin = 40
    span = coords.max(axis=0) - coords.min(axis=0)
    span = np.where(span > 0, span, 1.0)
    lo = coords.min(axis=0)
    parts = _header(width, height, title)
    parts.append(_data_comment(
        [("label", "x", "y")] +
        [(point_labels[i], _fmt(coords[i, 0]), _fmt(coords[i, 1]))
         for i in range(n)]))
    palette = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
               "#a65628", "#f781bf", "#999999"]
    label_order = sorted({str(l) for l in point_labels})
    color_of = {l: palette[i % len(palette)] for i, l in enumerate(label_order)}
    for i in range(n):
        x = margin + (coords[i, 0] - lo[0]) / span[0] * (width - 2 * margin)
        y = height - margin - (coords[i, 1] - lo[1]) / span[1] * (height - 2 * margin)
        label = str(point_labels[i])
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
            f'fill="{color_of[label]}"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y + 4:.2f}" '
            f'font-family="sans-serif" font-size="9">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
