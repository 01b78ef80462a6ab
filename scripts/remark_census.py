#!/usr/bin/env python3
"""Census of small score sets against exhaustive enumeration.

Catalogs the score sets of every graph with part sizes up to the given
bounds, then reports which candidate sets over {0..max-value} no such
graph attains.
Sets containing 0 are the interesting rows: {0}, {0,1}, and {0,1,2}
stay unrealized no matter how far the bounds are pushed.  That is
proven, not just observed: the total-score bound in the docstring of
``scoresets.oracle`` admits them at no shape.
"""

import argparse
from itertools import combinations

from scoresets import oracle


def realized_sets(max_m: int, max_n: int) -> set[tuple[int, ...]]:
    """Score sets attained at some shape within the bounds.  Only set
    keys are cataloged, no sequence pairs; bounds and budget are checked
    before the first catalog."""
    sets = set()
    for m, n in oracle._shapes(max_m, max_n, oracle.DEFAULT_BUDGET):
        sets.update(oracle.catalog_for_shape(m, n, pairs=False).sets)
    return sets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-value", type=int, default=4)
    args = parser.parse_args()

    realized = realized_sets(args.max_m, args.max_n)
    print(
        f"{len(realized)} score sets realized by graphs with "
        f"m <= {args.max_m}, n <= {args.max_n}"
    )

    universe = range(0, args.max_value + 1)
    missing = []
    for size in range(1, args.max_value + 2):
        for values in combinations(universe, size):
            if values not in realized:
                missing.append(values)
    print(f"{len(missing)} candidate subsets of {{0..{args.max_value}}} unrealized:")
    for values in missing:
        tag = " (contains 0)" if values[0] == 0 else ""
        print("  {" + ",".join(map(str, values)) + "}" + tag)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
