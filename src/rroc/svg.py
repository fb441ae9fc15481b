"""Standalone SVG rendering of evaluation reports.

The RROC panel puts heaven (0, 0) in the upper left: OVER grows rightward,
UNDER downward. Infinite rays (curve and hull extremes) are clipped at 1.15x
the maximum finite coordinate. Curve and hull polylines are drawn at pixel
resolution (see ``m4_indices``), so the document's size is bounded by the
plot's width, not by n. Density and cost panels are appended below
when the report carries that data.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .errors import DataError
from .report import EvaluationReport

__all__ = ["render_svg"]

PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

PANEL_W, PANEL_H = 640, 480
MARGIN = {"left": 64, "right": 160, "top": 36, "bottom": 44}
CLIP_FACTOR = 1.15
# A curve or hull layer with more points than this is drawn as its polyline
# alone, without a marker per point.
MARKER_LIMIT = 500


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# XML 1.0 allows no C0 control but tab, newline and carriage return, no
# surrogate and neither U+FFFE nor U+FFFF; each becomes U+FFFD.
_ESCAPES = {
    **dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF],
                    "\ufffd"),
    ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;",
}


def _esc(text: str) -> str:
    return text.translate(_ESCAPES)


class _Frame:
    """Maps data coordinates onto the pixel rectangle of one panel."""

    def __init__(self, x0, x1, y0, y1, y_offset):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.left = MARGIN["left"]
        self.top = y_offset + MARGIN["top"]
        self.w = PANEL_W - MARGIN["left"] - MARGIN["right"]
        self.h = PANEL_H - MARGIN["top"] - MARGIN["bottom"]

    def px(self, x: float) -> float:
        return self.left + (x - self.x0) / (self.x1 - self.x0) * self.w

    def py(self, y: float) -> float:
        return self.top + (self.y1 - y) / (self.y1 - self.y0) * self.h

    def polyline(self, pts, **style) -> str:
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in pts)
        attrs = " ".join(
            f'{"class" if k == "class_" else k.replace("_", "-")}="{v}"'
            for k, v in style.items()
        )
        return f'<polyline points="{coords}" fill="none" {attrs}/>'


def _clip_line(slope: float, intercept: float, frame: _Frame):
    """Segment of y = slope*x + intercept inside the frame's data rectangle."""
    pts = []
    for x in (frame.x0, frame.x1):
        y = slope * x + intercept
        if frame.y0 - 1e-12 <= y <= frame.y1 + 1e-12:
            pts.append((x, y))
    if slope != 0:
        for y in (frame.y0, frame.y1):
            x = (y - intercept) / slope
            if frame.x0 - 1e-12 <= x <= frame.x1 + 1e-12:
                pts.append((x, y))
    pts = sorted(set(pts))
    return (pts[0], pts[-1]) if len(pts) >= 2 else None


def _axes(frame: _Frame, x_label: str, y_label: str, out: List[str]):
    left, top = frame.left, frame.top
    right, bottom = left + frame.w, top + frame.h
    out.append(
        f'<rect x="{left}" y="{top}" width="{frame.w}" height="{frame.h}" '
        f'fill="white" stroke="#444" stroke-width="1"/>'
    )
    for i in range(5):
        xv = frame.x0 + (frame.x1 - frame.x0) * i / 4
        yv = frame.y1 - (frame.y1 - frame.y0) * i / 4
        xp, yp = frame.px(xv), frame.py(yv)
        out.append(f'<line x1="{_fmt(xp)}" y1="{bottom}" x2="{_fmt(xp)}" y2="{bottom + 4}" stroke="#444"/>')
        out.append(
            f'<text x="{_fmt(xp)}" y="{bottom + 16}" font-size="10" text-anchor="middle">{_fmt(xv)}</text>'
        )
        out.append(f'<line x1="{left - 4}" y1="{_fmt(yp)}" x2="{left}" y2="{_fmt(yp)}" stroke="#444"/>')
        out.append(
            f'<text x="{left - 6}" y="{_fmt(yp + 3)}" font-size="10" text-anchor="end">{_fmt(yv)}</text>'
        )
    out.append(
        f'<text x="{_fmt(left + frame.w / 2)}" y="{bottom + 32}" font-size="12" '
        f'text-anchor="middle">{_esc(x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(top + frame.h / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(top + frame.h / 2)})">{_esc(y_label)}</text>'
    )


def _legend(entries, frame: _Frame, out: List[str]):
    x = frame.left + frame.w + 14
    y = frame.top + 8
    for label, color, dash in entries:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{x}" y1="{y}" x2="{x + 22}" y2="{y}" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(f'<text x="{x + 28}" y="{y + 4}" font-size="11">{_esc(label)}</text>')
        y += 16


def _model_colors(model_ids):
    return {m: PALETTE[i % len(PALETTE)] for i, m in enumerate(model_ids)}


def m4_indices(px, y) -> np.ndarray:
    """Indices of the polyline points kept at pixel resolution, in order.

    M4 (Jugel et al., "M4: A Visualization-Oriented Time Series Data
    Aggregation", VLDB 2014): points are grouped into runs of equal
    ``floor(px)``, and a run of more than four points keeps only its first,
    last, minimum-y and maximum-y points, which draw the same pixels as the
    whole run. Runs of at most four points are kept whole, so a polyline with
    at most four points per pixel column comes back unchanged.
    """
    column = np.floor(np.asarray(px, dtype=float))
    y = np.asarray(y, dtype=float)
    if column.size == 0:
        return np.arange(0)
    new_run = np.concatenate(([True], column[1:] != column[:-1]))
    starts = np.flatnonzero(new_run)
    sizes = np.diff(np.append(starts, column.size))
    ends = starts + sizes - 1
    keep = np.repeat(sizes <= 4, sizes)
    # Sorted by run, then by y: each run keeps its place, its lowest y first.
    by_y = np.lexsort((y, np.cumsum(new_run)))
    for at in (starts, ends, by_y[starts], by_y[ends]):
        keep[at] = True
    return np.flatnonzero(keep)


def _frontier(frame: _Frame, over, under, **style) -> str:
    """A curve or hull with its rays to the frame's edges, drawn at pixel resolution.

    ``frame.polyline`` of the points ``m4_indices`` keeps.
    """
    xs = np.concatenate(([over[0]], over, [frame.x1]))
    ys = np.concatenate(([frame.y0], under, [under[-1]]))
    keep = m4_indices(frame.px(xs), ys)
    return frame.polyline(zip(xs[keep].tolist(), ys[keep].tolist()), **style)


def _rroc_panel(report: EvaluationReport, y_offset: int, out: List[str]) -> None:
    models = report.models
    colors = _model_colors(models)
    n_scale = report.axis_scale
    curves = {m: e["curve"] for m, e in models.items() if "curve" in e}
    hull = report.hull
    hull_over = np.zeros(0) if hull is None else hull.over / n_scale
    hull_under = np.zeros(0) if hull is None else hull.under / n_scale
    xs, ys = [0.0], [0.0]
    for entry in models.values():
        if "point" in entry:
            xs.append(entry["point"]["over"])
            ys.append(entry["point"]["under"])
    for curve in curves.values():
        xs.append(float(curve.over.max()) / n_scale)
        ys.append(float(curve.under.min()) / n_scale)
    if hull_over.size:
        xs.append(float(hull_over.max()))
        ys.append(float(hull_under.min()))
    x_max = max(max(xs), 1e-9) * CLIP_FACTOR
    y_min = min(min(ys), -1e-9) * CLIP_FACTOR
    frame = _Frame(0.0, x_max, y_min, 0.0, y_offset)

    suffix = " / n" if report.config["normalize"] else ""
    _axes(frame, f"OVER{suffix} (total over-estimation)", f"UNDER{suffix} (total under-estimation)", out)

    # Diagonal OVER - UNDER = 0.
    seg = _clip_line(-1.0, 0.0, frame)
    if seg:
        out.append(frame.polyline(seg, stroke="#999", stroke_dasharray="6,4", class_="diagonal"))

    # Isometrics of the queried operating conditions, behind the data.
    for q in report.alpha_queries or []:
        iso = q["isometric"]
        if iso["slope"] is None:
            x = iso["level"] / 2.0
            if 0 <= x <= frame.x1:
                out.append(frame.polyline([(x, frame.y0), (x, 0.0)], stroke="#cccccc", class_="isometric"))
        else:
            seg = _clip_line(iso["slope"], iso["intercept"], frame)
            if seg:
                out.append(frame.polyline(seg, stroke="#cccccc", class_="isometric"))

    for model_id, entry in models.items():
        color = colors[model_id]
        if model_id in curves:
            # The distinct vertices, as the hull indexes them and the report counts them.
            curve = curves[model_id]
            keep = curve.distinct_vertices()
            over, under = curve.over[keep] / n_scale, curve.under[keep] / n_scale
            out.append(_frontier(frame, over, under, stroke=color, stroke_width="1.5", class_="curve"))
            if over.size <= MARKER_LIMIT:
                for x, y in zip(over.tolist(), under.tolist()):
                    out.append(
                        f'<circle class="vertex" cx="{_fmt(frame.px(x))}" '
                        f'cy="{_fmt(frame.py(y))}" r="3" fill="{color}"/>'
                    )
        if "point" in entry:
            px, py = frame.px(entry["point"]["over"]), frame.py(entry["point"]["under"])
            out.append(
                f'<rect class="origin" x="{_fmt(px - 3.5)}" y="{_fmt(py - 3.5)}" '
                f'width="7" height="7" fill="{color}" stroke="#222"/>'
            )

    if hull_over.size:
        out.append(_frontier(frame, hull_over, hull_under, stroke="#000", stroke_width="1.8", class_="hull"))
        if hull_over.size <= MARKER_LIMIT:
            for x, y in zip(hull_over.tolist(), hull_under.tolist()):
                cx, cy = frame.px(x), frame.py(y)
                out.append(
                    f'<path class="hull-point" stroke="#000" d="M {_fmt(cx - 3)} {_fmt(cy - 3)} '
                    f'L {_fmt(cx + 3)} {_fmt(cy + 3)} M {_fmt(cx - 3)} {_fmt(cy + 3)} '
                    f'L {_fmt(cx + 3)} {_fmt(cy - 3)}"/>'
                )

    _legend([(m, colors[m], None) for m in models], frame, out)


def _density_panel(report: EvaluationReport, y_offset: int, out: List[str]) -> None:
    models = {m: e for m, e in report.models.items() if "density" in e}
    colors = _model_colors(report.models)
    xs = [x for e in models.values() for x in e["density"]["x"]]
    tops = [max(e["density"]["density"]) for e in models.values()]
    frame = _Frame(min(xs), max(xs), 0.0, max(tops) * 1.05, y_offset)
    _axes(frame, "error", "density", out)
    for model_id, entry in models.items():
        pts = list(zip(entry["density"]["x"], entry["density"]["density"]))
        out.append(frame.polyline(pts, stroke=colors[model_id], stroke_width="1.5", class_="density"))
    _legend([(m, colors[m], None) for m in models], frame, out)


def _cost_panel(report: EvaluationReport, y_offset: int, out: List[str]) -> None:
    models = {m: e for m, e in report.models.items() if "cost_curves" in e}
    colors = _model_colors(report.models)
    top = max(max(e["cost_curves"]["none"]) for e in models.values())
    frame = _Frame(0.0, 1.0, 0.0, max(top, 1e-9) * 1.05, y_offset)
    _axes(frame, "alpha (asymmetry)", "mean asymmetric loss", out)
    legend = []
    for model_id, entry in models.items():
        cc = entry["cost_curves"]
        color = colors[model_id]
        out.append(
            frame.polyline(
                list(zip(cc["alphas"], cc["none"])),
                stroke=color, stroke_dasharray="5,3", class_="cost-none",
            )
        )
        out.append(
            frame.polyline(
                list(zip(cc["alphas"], cc["optimal_constant"])),
                stroke=color, stroke_width="1.5", class_="cost-optimal",
            )
        )
        legend.append((f"{model_id} none", color, "5,3"))
        legend.append((f"{model_id} optimal", color, None))
    _legend(legend, frame, out)


def render_svg(report: EvaluationReport) -> str:
    """Render a report as a standalone SVG document."""
    if not report.models:
        raise DataError("cannot render an empty report")
    panels = [_rroc_panel]
    if any("density" in e for e in report.models.values()):
        panels.append(_density_panel)
    if any("cost_curves" in e for e in report.models.values()):
        panels.append(_cost_panel)

    body: List[str] = []
    for i, panel in enumerate(panels):
        panel(report, i * PANEL_H, body)
    height = len(panels) * PANEL_H
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'viewBox="0 0 {PANEL_W} {height}" font-family="sans-serif">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
