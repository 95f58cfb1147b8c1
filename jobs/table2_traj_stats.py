"""Table II — Statistics of Trajectories (travel-distance distribution)."""
from common import build_world, get_session, scale_from_argv

from repro.traj.generator import trajectories_df
from repro.traj.stats import D2_BUCKETS, distance_table_pdf


def main() -> None:
    spark = get_session("table2")
    city, train, test = build_world(scale_from_argv())
    df = trajectories_df(spark, train + test)
    print("\n=== Table II: Statistics of Trajectories (synthetic D2-like) ===")
    print(distance_table_pdf(df, D2_BUCKETS).to_string(index=False))


if __name__ == "__main__":
    main()
