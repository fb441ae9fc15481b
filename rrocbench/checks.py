"""Correctness gate: the benchmark's own reference values for rroc outputs.

Every function returns a list of failure messages; an empty list means the
output passed. References are computed here with numpy, independently of the
library, so a change that gets faster by computing something else fails.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

REL_TOL = 1e-9


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def load_strict_json(data: bytes):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def reference_aoc(e: np.ndarray) -> float:
    """AOC identity: population variance times n^2 / 2."""
    return float(np.var(e)) * e.size**2 / 2.0


def reference_point(e: np.ndarray):
    return float(e[e > 0].sum()), float(e[e < 0].sum())


def check_report(report: dict, errors: Dict[str, np.ndarray], outputs: List[str]) -> List[str]:
    """Check a parsed `rroc analyze` JSON report against the input errors."""
    fails: List[str] = []
    models = report.get("models", {})
    if sorted(models) != sorted(errors):
        return [f"report models {sorted(models)} != input models {sorted(errors)}"]
    for m, e in errors.items():
        entry = models[m]
        if not _close(entry["aoc"], reference_aoc(e)):
            fails.append(f"{m}: aoc {entry['aoc']!r} != var*n^2/2 {reference_aoc(e)!r}")
        if "points" in outputs:
            over, under = reference_point(e)
            pt = entry["point"]
            if not (_close(pt["over"], over) and _close(pt["under"], under)):
                fails.append(f"{m}: point {pt} != ({over!r}, {under!r})")
        if "curves" in outputs and len(entry["curve"]["vertices"]) != e.size:
            fails.append(f"{m}: {len(entry['curve']['vertices'])} curve vertices for n={e.size}")
        if "cost" in outputs:
            cc = entry["cost_curves"]
            for a, opt, none in zip(cc["alphas"], cc["optimal_constant"], cc["none"]):
                if opt > none + REL_TOL * abs(none):
                    fails.append(f"{m}: optimal_constant {opt!r} > none {none!r} at alpha {a}")
                    break
    if "hull" in outputs:
        fails += check_hull([(p["over"], p["under"]) for p in report["hull"]["points"]])
    if "dominance" in outputs:
        fails += check_dominance(report["dominance"])
    return fails


def check_hull(points) -> List[str]:
    """Finite hull points run left to right with increasing over, non-decreasing under."""
    if not points:
        return ["hull has no finite points"]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if not (x1 > x0 and y1 >= y0):
            return [f"hull not monotone at ({x0!r}, {y0!r}) -> ({x1!r}, {y1!r})"]
    return []


def check_dominance(regions: List[dict]) -> List[str]:
    """Regions tile [0, 1]: start at 0, end at 1, each starts where the last ended."""
    if not regions:
        return ["no dominance regions"]
    if regions[0]["alpha_low"] != 0.0 or regions[-1]["alpha_high"] != 1.0:
        return [f"dominance spans [{regions[0]['alpha_low']}, {regions[-1]['alpha_high']}]"]
    for prev, cur in zip(regions, regions[1:]):
        if cur["alpha_low"] != prev["alpha_high"]:
            return [f"dominance gap between {prev['alpha_high']!r} and {cur['alpha_low']!r}"]
    for r in regions:
        if not r["alpha_low"] <= r["alpha_high"]:
            return [f"dominance region [{r['alpha_low']!r}, {r['alpha_high']!r}] is reversed"]
    return []


def check_svg(data: bytes) -> List[str]:
    """One standalone <svg ...>...</svg> document."""
    text = data.decode("utf-8").strip()
    if not (text.startswith("<svg ") and text.endswith("</svg>")):
        return ["SVG is not a single <svg>...</svg> document"]
    if text.count("<svg") != 1 or text.count("</svg>") != 1:
        return ["SVG holds more than one <svg> element"]
    return []


def curve_vertices(e: np.ndarray) -> np.ndarray:
    """(over, under) of every interior curve vertex: shift each error onto zero."""
    t = e[None, :] - e[:, None]
    return np.stack([np.where(t > 0, t, 0.0).sum(axis=1), np.where(t < 0, t, 0.0).sum(axis=1)], axis=1)


def check_library_case(errors: Dict[str, np.ndarray], alpha: float, results: dict) -> List[str]:
    """Check the outputs of one library problem.

    ``results`` maps model id to ``aoc`` and ``opt_loss``, plus ``hull``: the
    finite hull points as (over, under) pairs.
    """
    fails: List[str] = []
    for m, e in errors.items():
        r = results[m]
        if not _close(r["aoc"], reference_aoc(e)):
            fails.append(f"{m}: aoc {r['aoc']!r} != var*n^2/2 {reference_aoc(e)!r}")
        over, under = reference_point(e)
        loss0 = 2.0 * (1.0 - alpha) * over - 2.0 * alpha * under
        if r["opt_loss"] > loss0 + REL_TOL * abs(loss0):
            fails.append(f"{m}: optimal-shift loss {r['opt_loss']!r} > loss at shift 0 {loss0!r}")
    vertices = np.concatenate([curve_vertices(e) for e in errors.values()])
    scale = float(np.abs(vertices).max())
    for x, y in results["hull"]:
        gap = np.abs(vertices - (x, y)).max(axis=1).min()
        if not gap <= REL_TOL * scale:
            fails.append(f"hull point ({x!r}, {y!r}) is no vertex of any input curve")
            break
    fails += check_hull(results["hull"])
    return fails

