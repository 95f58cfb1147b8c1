"""Fig. 13 as a table — L2R vs the external routing-service surrogate,
scored with the 10 m-band way-point matching of Sec. VII-D."""
import numpy as np
import pandas as pd
from common import build_world, get_session, scale_from_argv

from repro.baselines.external import GoogleSimRouter
from repro.core.pipeline import build_l2r
from repro.eval.band_match import band_accuracy
from repro.eval.harness import category_of
from repro.traj.stats import D2_BUCKETS


def main() -> None:
    spark = get_session("fig13")
    city, train, test = build_world(scale_from_argv())
    arts = build_l2r(spark, city, train)
    gs = GoogleSimRouter(city.net, seed=29)
    vr = arts.router.rg.vertex_region

    rows = []
    for t in test:
        g_path = gs.route(t.path[0], t.path[-1], peak=t.peak)
        g_wps = gs.waypoints(g_path, every=3, noise_m=3.0, seed=t.traj_id)
        l_path = arts.router.route(t.path[0], t.path[-1])
        l_wps = city.net.xy[np.asarray(l_path)]
        edges = D2_BUCKETS
        b = next(
            (f"({lo:g},{hi:g}]" for lo, hi in zip(edges[:-1], edges[1:]) if t.dist_m <= hi * 1000),
            f">{edges[-1]:g}",
        )
        rows.append(
            {
                "bucket": b,
                "category": category_of(vr, t.path[0], t.path[-1]),
                "GoogleSim": band_accuracy(city.net, t.path, g_wps),
                "L2R": band_accuracy(city.net, t.path, l_wps),
            }
        )
    pdf = pd.DataFrame(rows)
    print("\n=== Fig. 13 as table: band-matching accuracy by distance bucket ===")
    print(pdf.groupby("bucket")[["GoogleSim", "L2R"]].mean().round(3))
    print("\n=== Fig. 13 as table: band-matching accuracy by category ===")
    print(pdf.groupby("category")[["GoogleSim", "L2R"]].mean().round(3))


if __name__ == "__main__":
    main()
