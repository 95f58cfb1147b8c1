"""Fig. 9 as a table — transfer accuracy vs #partitions and vs amr."""
from common import build_world, get_session, scale_from_argv

from repro.core.clustering import bottom_up_clustering
from repro.core.popularity import edge_popularity_array
from repro.core.preference import learn_t_edge_preferences
from repro.core.region_graph import build_region_graph
from repro.core.transfer import transfer_cv_experiment
from repro.traj.generator import trajectories_df


def main() -> None:
    spark = get_session("fig9")
    city, train, _ = build_world(scale_from_argv())
    df = trajectories_df(spark, train)
    pop = edge_popularity_array(df, city.net, spark)
    regions = bottom_up_clustering(city.net, pop)
    rg = build_region_graph(spark, city.net, regions, df)
    learn_t_edge_preferences(spark, city.net, rg)
    tbl = transfer_cv_experiment(spark, rg)
    print("\n=== Fig. 9 as table: preference-transfer accuracy ===")
    print(tbl.to_string(index=False))


if __name__ == "__main__":
    main()
