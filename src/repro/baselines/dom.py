"""Dom [26] — personalized routing baseline (substitution, see DESIGN.md).

The original Dom compares each driver's paths against skyline paths over
(distance, travel time, fuel) to find the driver's dominating cost factor,
then routes with it. We reproduce both its information content and its
cost profile:

* **fit**: per driver, score each cost feature by how well its lowest-cost
  paths match the driver's own training paths (pSim), and keep the best —
  a single *global* preference per driver, unlike L2R's per-region-pair
  preferences;
* **route**: compute candidate lowest-cost paths for *all* cost features
  (the multi-objective candidate generation that makes Dom expensive in
  the paper — honestly ~3× the single-cost work) and return the candidate
  of the driver's learned dominating factor.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..eval.similarity import psim
from ..roadnet.model import COSTS, RoadNetwork
from ..roadnet.shortest_path import dijkstra
from ..traj.generator import Trajectory


@dataclass
class DomRouter:
    net: RoadNetwork
    driver_pref: dict[int, str] = field(default_factory=dict)

    # Training paths scored per driver (a seeded sample when there are more).
    MAX_PATHS_PER_DRIVER = 8
    SEED = 23

    def __post_init__(self):
        self._w = {c: {False: self.net.weights(c, peak=False), True: self.net.weights(c, peak=True)} for c in COSTS}

    def fit(self, train: list[Trajectory]) -> "DomRouter":
        """Learn each driver's dominating cost factor from their own paths."""
        g = np.random.default_rng(self.SEED)
        by_driver: dict[int, list[Trajectory]] = {}
        for t in train:
            by_driver.setdefault(t.driver, []).append(t)
        for drv, ts in by_driver.items():
            if len(ts) > self.MAX_PATHS_PER_DRIVER:
                ts = [ts[i] for i in g.choice(len(ts), self.MAX_PATHS_PER_DRIVER, replace=False)]
            votes: Counter[str] = Counter()
            for t in ts:
                best_c, best_s = "TT", -1.0
                for c in COSTS:
                    res = dijkstra(self.net, t.path[0], t.path[-1], self._w[c][t.peak])
                    s = psim(self.net, t.path, res[0]) if res else 0.0
                    if s > best_s:
                        best_c, best_s = c, s
                votes[best_c] += 1
            self.driver_pref[drv] = votes.most_common(1)[0][0]
        return self

    def route(self, s: int, d: int, peak: bool = False, driver: int = 0) -> list[int]:
        pref = self.driver_pref.get(driver, "TT")
        chosen = [s]
        # Multi-objective candidate generation: all cost features are
        # evaluated (this is what makes Dom the slowest baseline).
        for c in COSTS:
            res = dijkstra(self.net, s, d, self._w[c][peak])
            if res and c == pref:
                chosen = res[0]
        return chosen
