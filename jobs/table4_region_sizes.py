"""Table IV — Region Sizes (convex-hull area buckets, max diameters)."""
from common import build_world, get_session, scale_from_argv

from repro.core.clustering import bottom_up_clustering
from repro.core.popularity import edge_popularity_array
from repro.core.region_graph import region_size_table
from repro.traj.generator import trajectories_df


def main() -> None:
    spark = get_session("table4")
    city, train, _ = build_world(scale_from_argv())
    df = trajectories_df(spark, train)
    pop = edge_popularity_array(df, city.net, spark)
    regions = bottom_up_clustering(city.net, pop)
    tbl = region_size_table(city.net, [r.vertices for r in regions])
    print(f"\n=== Table IV: Region Sizes ({len(regions)} regions) ===")
    print(tbl.to_string(index=False))


if __name__ == "__main__":
    main()
