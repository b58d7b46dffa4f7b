"""Deterministic result serialization: JSON-style text, CSV, static SVG.

Everything here is pure string assembly: identical inputs produce
byte-identical outputs, which the command line interface relies on.
Floats are written as "%.17g" (so every value round-trips exactly and -0
keeps its sign); infinities and NaN use the Infinity/NaN tokens Python's
json module accepts.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .version import __version__


def float_text(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def float_texts(values) -> list[str]:
    """[float_text(v) for v in values]; one "%" operation when all are finite."""
    values = tuple(values)
    if all(map(math.isfinite, values)):
        return ("%.17g\0" * len(values) % values).split("\0")[:-1]
    return list(map(float_text, values))


class FloatColumn(list):
    """A list of floats whose texts are formatted once, on first use.

    A payload column that is written twice (the fit's region contours, in
    the JSON and in the region CSV) shares these texts; the list must not
    change after they are read.
    """

    @functools.cached_property
    def texts(self) -> list[str]:
        return float_texts(self)


class RepeatedColumn(FloatColumn):
    """The floats of axis, each `each` times in a row, the run `times` times over.

    One coordinate of a flattened grid (the scan's d~ and q~ columns): its
    texts repeat the axis's, so each distinct float is formatted once.
    """

    def __init__(self, axis, each: int = 1, times: int = 1):
        self.axis, self.each, self.times = FloatColumn(axis), each, times
        super().__init__([v for v in self.axis for _ in range(each)] * times)

    @functools.cached_property
    def texts(self) -> list[str]:
        return [text for text in self.axis.texts for _ in range(self.each)] * self.times


def _column_texts(column) -> list[str]:
    return column.texts if isinstance(column, FloatColumn) else float_texts(column)


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float_text(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def structured_text(obj, indent: int = 0) -> str:
    """JSON-compatible text with stable key order and stable float digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {structured_text(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, FloatColumn) or (
            isinstance(obj, (list, tuple)) and all(isinstance(v, float) for v in obj)):
        return "[" + ", ".join(_column_texts(obj)) + "]"  # same text, no per-item dispatch
    if isinstance(obj, (list, tuple)) and all(type(v) is int for v in obj):
        return "[" + ", ".join(map(str, obj)) + "]"  # as _scalar_text writes each
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(structured_text(v, indent) for v in obj) + "]"
    return _scalar_text(obj)


@dataclass(frozen=True)
class ResultEnvelope:
    """Top-level result document: version, setup echo, regime, payload.

    The field order is the order of the document's keys; version is
    keyword-only, so ResultEnvelope(setup, regime, payload) still works.
    """

    version: str = field(default=__version__, kw_only=True)
    setup: dict
    regime: dict
    payload: dict

    def as_dict(self) -> dict:
        return dict(vars(self))


def csv_table(header: str, *columns) -> str:
    """CSV text: the header line, then one line per row of the columns of cell texts."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _csv_pattern(payload: dict) -> str:
    orders = [str(int(p)) for p in payload["orders"]]
    return csv_table("order,probability", orders, float_texts(payload["probabilities"]))


def _csv_fit(payload: dict) -> str:
    return csv_table("r_eff,chi2", float_texts(payload["scan_r"]),
                     float_texts(payload["scan_chi2"]))


def _csv_region(payload: dict) -> str:
    d_texts, q_texts = ([text for contour in payload["contours"]
                         for text in _column_texts(contour[key])]
                        for key in ("d_tilde", "q_tilde"))
    return csv_table("d_tilde,q_tilde", d_texts, q_texts)


def _csv_scan(payload: dict) -> str:
    keys = ("d_tilde", "q_tilde", "r_eff", "p0")
    return csv_table(",".join(keys), *(_column_texts(payload[k]) for k in keys))


_CSV_BY_KIND = {
    "pattern": _csv_pattern,
    "fit": _csv_fit,
    "region": _csv_region,
    "scan": _csv_scan,
}

# layout constants for the bar chart
_SVG_W, _SVG_H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 24, 48


def svg_bar_chart(payload: dict) -> str:
    """Static bar chart of order probabilities: one rect per order."""
    orders = [int(p) for p in payload["orders"]]
    probs = [float(v) for v in payload["probabilities"]]
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB
    ymax = max(max(probs), 1e-12)
    n = len(orders)
    slot = plot_w / n
    bar_w = 0.8 * slot
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_SVG_H - 10}" text-anchor="middle" '
        f'font-size="13">diffraction order p</text>',
        f'<text x="14" y="{_MT - 8}" font-size="13">probability</text>',
        f'<text x="{_ML - 6}" y="{_MT + 5}" text-anchor="end" font-size="11">'
        f'{ymax:.3g}</text>',
        f'<text x="{_ML - 6}" y="{_MT + plot_h + 4}" text-anchor="end" font-size="11">0</text>',
    ]
    label_step = max(1, (n + 15) // 16)
    for i, (p, v) in enumerate(zip(orders, probs)):
        x = _ML + i * slot + 0.5 * (slot - bar_w)
        h = plot_h * v / ymax
        y = _MT + plot_h - h
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{h:.2f}" fill="#336699"/>')
        if i % label_step == 0:
            parts.append(f'<text x="{x + 0.5 * bar_w:.2f}" y="{_MT + plot_h + 16}" '
                         f'text-anchor="middle" font-size="11">{p}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(envelope: ResultEnvelope, fmt: str) -> bytes:
    """Render an envelope in the requested format.

    json works for every payload; csv needs a tabular payload kind; svg is
    the pattern bar chart only.  Mismatches raise ValueError.
    """
    kind = envelope.payload.get("kind")
    if fmt == "json":
        return (structured_text(envelope.as_dict()) + "\n").encode()
    if fmt == "csv":
        builder = _CSV_BY_KIND.get(kind)
        if builder is None:
            raise ValueError(f"payload kind {kind!r} has no CSV form; use json")
        return builder(envelope.payload).encode()
    if fmt == "svg":
        if kind != "pattern":
            raise ValueError(f"svg output is only defined for patterns, not {kind!r}")
        return svg_bar_chart(envelope.payload).encode()
    raise ValueError(f"unknown format {fmt!r} (expected csv, json or svg)")
