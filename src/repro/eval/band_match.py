"""10 m-band way-point matching — the Google-comparison methodology
(Sec. VII-D, Fig. 14).

The ground-truth path is a polyline; a band of ±``BAND_M`` metres
surrounds it. A way-point inside the band is *matched* and is projected
onto the polyline; for each pair of consecutive matched way-points, the GT
edges lying between their projection points count as covered. Accuracy is the
covered length divided by the GT path length (the Eq. 1 normalisation).
"""
from __future__ import annotations

import numpy as np

from ..roadnet.model import RoadNetwork

BAND_M = 10.0  # half-width of the matching band, metres


def _project_to_polyline(pts: np.ndarray, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point: (distance to polyline, arc-length of its projection)."""
    a = poly[:-1]  # segment starts
    b = poly[1:]
    ab = b - a
    seg_len = np.linalg.norm(ab, axis=1)
    arc0 = np.concatenate([[0.0], np.cumsum(seg_len)])[:-1]
    dists, arcs = np.empty(len(pts)), np.empty(len(pts))
    for i, p in enumerate(pts):
        ap = p[None, :] - a
        denom = np.maximum(seg_len**2, 1e-12)
        t = np.clip((ap * ab).sum(axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.linalg.norm(proj - p[None, :], axis=1)
        j = int(np.argmin(d))
        dists[i] = d[j]
        arcs[i] = arc0[j] + t[j] * seg_len[j]
    return dists, arcs


def band_accuracy(net: RoadNetwork, gt_path: list[int], waypoints: np.ndarray) -> float:
    """Similarity of a way-point answer against a GT path (Eq. 1 style)."""
    if len(gt_path) < 2 or len(waypoints) == 0:
        return 0.0
    poly = net.xy[np.asarray(gt_path, dtype=np.int64)]
    seg_len = np.linalg.norm(poly[1:] - poly[:-1], axis=1)
    edge_arc = np.concatenate([[0.0], np.cumsum(seg_len)])  # vertex arc positions
    total = edge_arc[-1]
    if total <= 0:
        return 0.0
    dists, arcs = _project_to_polyline(waypoints, poly)
    matched = dists <= BAND_M
    # Intervals between consecutive matched way-points.
    intervals = []
    for i in range(len(waypoints) - 1):
        if matched[i] and matched[i + 1]:
            lo, hi = sorted((arcs[i], arcs[i + 1]))
            intervals.append((lo, hi))
    if not intervals:
        return 0.0
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + 1e-9:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # GT edges fully between projection points count as matched edges.
    covered = 0.0
    for e in range(len(seg_len)):
        lo, hi = edge_arc[e], edge_arc[e + 1]
        if any(mlo <= lo + 1e-6 and hi <= mhi + 1e-6 for mlo, mhi in merged):
            covered += seg_len[e]
    return covered / total
