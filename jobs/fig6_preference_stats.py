"""Fig. 6(a) as a table — preference distribution over T-edges."""
from common import build_world, get_session, scale_from_argv

from repro.core.pipeline import build_l2r
from repro.core.preference import preference_distribution


def main() -> None:
    spark = get_session("fig6")
    city, train, _ = build_world(scale_from_argv())
    arts = build_l2r(spark, city, train)
    print("\n=== Fig. 6(a) as table: T-edge preference statistics ===")
    print(preference_distribution(arts.prefs).to_string(index=False))


if __name__ == "__main__":
    main()
