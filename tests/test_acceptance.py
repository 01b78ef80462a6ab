"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s).
Run: pytest tests/test_acceptance.py -v -s
"""

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

import pytest

from scoresets.constructions import Family, build, realize
from scoresets.criteria import check_bipartite_pair
from scoresets.graph_core import ScoreSet
from scoresets.oracle import bounded_search, criterion_equivalence, realizable_sets_up_to


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@dataclass(frozen=True)
class GridEntry:
    label: str
    requested: tuple[int, ...]
    got: tuple[int, ...]
    m: int
    n: int
    criterion_valid: bool
    sum_a: int
    sum_b: int
    u_block_sizes: dict


def _grid_entries():
    cases = [(f"singleton({a})", (a,), Family("Singleton", (a,))) for a in range(1, 11)]
    for a1 in range(1, 11):
        for a2 in range(a1 + 1, 11):
            cases.append((f"doubleton({a1},{a2})", (a1, a2), Family("Doubleton", (a1, a2))))
    for a1, a2, a3 in combinations(range(1, 13), 3):
        cases.append((f"triple({a1},{a2},{a3})", (a1, a2, a3), Family("Triple", (a1, a2, a3))))
    for a in range(1, 5):
        for d in range(2, 6):
            for n in range(0, 6):
                requested = tuple(a * d**i for i in range(n + 1))
                cases.append((f"geometric({a},{d},{n})", requested, Family("Geometric", (a, d, n))))
    for a in range(1, 7):
        for d in range(1, 7):
            for n in range(0, 7):
                requested = tuple(a + i * d for i in range(n + 1))
                cases.append(
                    (f"arithmetic({a},{d},{n})", requested, Family("Arithmetic", (a, d, n)))
                )

    entries = []
    for label, requested, family in cases:
        realization = build(family)
        g = realization.graph
        pair = g.score_sequences()
        entries.append(
            GridEntry(
                label=label,
                requested=requested,
                got=g.score_set().values,
                m=g.m,
                n=g.n,
                criterion_valid=check_bipartite_pair(pair) is None,
                sum_a=sum(pair.a),
                sum_b=sum(pair.b),
                u_block_sizes={b.label: b.size for b in realization.u_blocks},
            )
        )
    return entries


@pytest.fixture(scope="module")
def grid():
    return _grid_entries()


def test_criterion_1_construction_grid(grid):
    with criterion("1 (construction correctness grid)"):
        for entry in grid:
            assert entry.got == entry.requested, entry.label
        # both triple branches exercised
        wide = [e for e in grid if e.label.startswith("triple") and "X1_dominated" not in e.u_block_sizes]
        narrow = [e for e in grid if e.label.startswith("triple") and "X1_dominated" in e.u_block_sizes]
        assert wide and narrow
        # all three arithmetic cases and both parities of n exercised
        for a, d, n in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3)]:
            assert any(e.label == f"arithmetic({a},{d},{n})" for e in grid)


def test_criterion_2_criterion_compliance(grid):
    with criterion("2 (sequence criterion compliance)"):
        for entry in grid:
            assert entry.criterion_valid, entry.label
            assert entry.sum_a + entry.sum_b == 2 * entry.m * entry.n, entry.label


def test_criterion_3_equivalence_at_small_shapes():
    with criterion("3 (criterion equivalence for m,n <= 3)"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                report = criterion_equivalence(m, n)
                assert report.necessity_ok, (m, n, report.counterexamples[:3])
                assert report.sufficiency_ok, (m, n, report.counterexamples[:3])


def test_criterion_4_unrealizable_small_sets():
    with criterion("4 (bounded non-realizability of {0}, {0,1}, {0,1,2})"):
        for values in [(0,), (0, 1), (0, 1, 2)]:
            witness = bounded_search(ScoreSet(values), 4, 4, budget=3**16)
            assert witness is None, values
            with pytest.raises(ValueError):
                realize(ScoreSet(values))


def test_criterion_5_formula_audits():
    with criterion("5 (block size and part size formula audits)"):
        # independent prefix-sum evaluation of the doubling-block rule
        def doubling_sizes(a, top):
            sizes = {0: a, 1: a, 2: a}
            for i in range(3, top + 1):
                sizes[i] = 2**i * a - 2 * sum(sizes[j] for j in range(i) if j != 2)
            return sizes

        expected = doubling_sizes(1, 6)
        assert [expected[i] for i in (3, 4, 5, 6)] == [4, 4, 12, 20]
        realization = build(Family("Geometric", (1, 2, 6)))
        got = {b.label: b.size for b in realization.u_blocks}
        for i in (3, 4, 5, 6):
            assert got[f"X{i}"] == expected[i]
        got_v = {b.label: b.size for b in realization.v_blocks}
        for i in (3, 4, 5, 6):
            assert got_v[f"Y{i}"] == expected[i]

        # wide-difference arithmetic part size, full case grid
        for a in range(1, 7):
            for d in range(a + 1, 7):
                for n in range(0, 7):
                    g = build(Family("Arithmetic", (a, d, n))).graph
                    expected_size = n * d // 2 + a if n % 2 == 0 else (n + 1) * d // 2
                    assert g.m == g.n == expected_size, (a, d, n)


def test_criterion_6_catalog_ground_truth():
    with criterion("6 (1x1 catalog ground truth)"):
        catalog = realizable_sets_up_to(1, 1)
        assert sorted(catalog.sets) == [(0, 2), (1,)]
