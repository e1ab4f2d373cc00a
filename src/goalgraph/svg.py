"""Deterministic SVG rendering of scenes and predictions."""

from __future__ import annotations

from .files import written
from .scene import Scene


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _polyline(pts, stroke, width, opacity=1.0, dash=None, cls=None):
    d = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<polyline{cls_attr} points="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}"{dash_attr}/>')


def _polygon(pts, fill, opacity):
    d = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return f'<polygon points="{d}" fill="{fill}" fill-opacity="{_fmt(opacity)}" stroke="none"/>'


def _score_color(s: float) -> str:
    """High score: warm red; low score: pale orange."""
    t = max(0.0, min(1.0, s))
    r = 255
    g = int(round(180 - 140 * t))
    b = int(round(60 * (1 - t)))
    return f"rgb({r},{g},{b})"


def render_scene_svg(scene: Scene, preds: list | None = None, path: str | None = None) -> str:
    """Lanes gray, history blue, GT future green, predictions colored by score,
    selected goals marked with crosses."""
    xs, ys = [], []
    for lane in scene.lanes:
        poly = lane.polygon()
        xs.extend(poly[:, 0])
        ys.extend(poly[:, 1])
    for a in scene.agents:
        v = a.valid
        xs.extend(a.states[v, 0])
        ys.extend(a.states[v, 1])
    if preds:
        for p in preds:
            xs.extend(p.traj_scene[:, 0])
            ys.extend(p.traj_scene[:, 1])
    if not xs:
        xs, ys = [0.0], [0.0]
    pad = 10.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y1)} '
        f'{_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
        f'<g transform="scale(1,-1)">',
    ]
    for lane in scene.lanes:
        parts.append(_polygon(lane.polygon(), "#bbbbbb", 0.6))
        parts.append(_polyline(lane.centerline, "#888888", 0.15, dash="1,1"))
    th = scene.t_history
    for a in scene.agents:
        hist = a.states[:th][a.valid[:th]][:, 0:2]
        fut = a.states[th:][a.valid[th:]][:, 0:2]
        if len(hist) > 1:
            parts.append(_polyline(hist, "#1f5fbf", 0.5))
        if len(fut) > 1:
            parts.append(_polyline(fut, "#1faf4f", 0.5))
    if preds:
        for p in sorted(preds, key=lambda p: (p.agent_idx, p.mode)):
            parts.append(_polyline(p.traj_scene, _score_color(p.score), 0.4,
                                   opacity=0.9, cls="pred"))
            if p.goal_scene is not None:
                gx, gy = p.goal_scene
                r = 0.8
                parts.append(f'<path d="M {_fmt(gx - r)} {_fmt(gy)} L {_fmt(gx + r)} {_fmt(gy)} '
                             f'M {_fmt(gx)} {_fmt(gy - r)} L {_fmt(gx)} {_fmt(gy + r)}" '
                             f'stroke="#000000" stroke-width="0.2" fill="none"/>')
    parts.append("</g></svg>")
    out = "\n".join(parts) + "\n"
    if path:
        with written(path) as f:
            f.write(out)
    return out
