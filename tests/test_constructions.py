import hashlib
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import per_vertex_scores, run_python
from scoresets.constructions import (
    Block,
    Family,
    Realization,
    RealizationError,
    UnsupportedScoreSetError,
    build,
    classify,
    realize,
    spans,
)
from scoresets.cli import main
from scoresets.criteria import check_bipartite_pair
from scoresets.graph_core import ArcState, BipartiteOrientedGraph, ScoreSet
from scoresets.oracle import bounded_search


def block_sizes(blocks):
    return {b.label: b.size for b in blocks}


def layout_scores(r):
    """U- and V-scores in vertex order: each block score repeated by its size."""
    return tuple(
        [score for b, score in zip(blocks, scores) for _ in range(b.size)]
        for blocks, scores in zip((r.u_blocks, r.v_blocks), r._block_scores())
    )


# ---------------------------------------------------------------- singleton


def test_singleton_even():
    r = build(Family("Singleton", (4,)))
    g = r.graph
    assert (g.m, g.n) == (4, 4)
    assert block_sizes(r.u_blocks) == {"X1": 2, "X2": 2}
    assert g.score_set() == ScoreSet((4,))
    assert per_vertex_scores(g) == ([4] * 4, [4] * 4)
    r.verify()


def test_singleton_one_is_empty_graph():
    r = build(Family("Singleton", (1,)))
    g = r.graph
    assert (g.m, g.n) == (1, 1)
    assert g == BipartiteOrientedGraph(1, 1)
    assert g.score_set() == ScoreSet((1,))
    assert block_sizes(r.u_blocks) == {"X1": 0, "X2": 0, "x": 1}
    r.verify()


def test_singleton_odd():
    r = build(Family("Singleton", (3,)))
    g = r.graph
    assert (g.m, g.n) == (3, 3)
    assert per_vertex_scores(g) == ([3] * 3, [3] * 3)
    r.verify()


def test_singleton_rejects_zero():
    with pytest.raises(ValueError):
        build(Family("Singleton", (0,)))


@pytest.mark.parametrize("a", range(1, 9))
def test_singleton_block_audit(a):
    build(Family("Singleton", (a,))).verify()


# ---------------------------------------------------------------- doubleton


def test_doubleton_one_three():
    r = build(Family("Doubleton", (1, 3)))
    g = r.graph
    assert (g.m, g.n) == (3, 1)
    assert g == BipartiteOrientedGraph(3, 1)
    pair = g.score_sequences()
    assert pair.a == (1, 1, 1) and pair.b == (3,)
    r.verify()


def test_doubleton_two_three():
    r = build(Family("Doubleton", (2, 3)))
    g = r.graph
    assert (g.m, g.n) == (3, 2)
    assert g.score_set() == ScoreSet((2, 3))
    r.verify()


def test_doubleton_rejects_bad_order():
    with pytest.raises(ValueError):
        build(Family("Doubleton", (2, 2)))
    with pytest.raises(ValueError):
        build(Family("Doubleton", (3, 2)))
    with pytest.raises(ValueError):
        build(Family("Doubleton", (0, 1)))


# ---------------------------------------------------------------- triple


def test_triple_wide_spread():
    r = build(Family("Triple", (1, 2, 5)))
    g = r.graph
    assert (g.m, g.n) == (3, 4)
    pair = g.score_sequences()
    assert pair.a == (1, 1, 5) and pair.b == (2, 5, 5, 5)
    assert g.score_set() == ScoreSet((1, 2, 5))
    r.verify()


def test_triple_narrow_spread():
    r = build(Family("Triple", (1, 2, 3)))
    g = r.graph
    assert (g.m, g.n) == (2, 2)
    pair = g.score_sequences()
    assert pair.a == (1, 2) and pair.b == (2, 3)
    labels = {b.label for b in r.u_blocks}
    assert labels == {"X1_dominated", "X1_rest"}
    r.verify()


def test_triple_boundary_goes_to_narrow_branch():
    # a3 == 2 * a2 must use the single-U-block construction
    r = build(Family("Triple", (2, 3, 6)))
    g = r.graph
    assert (g.m, g.n) == (3, 3)
    assert g.score_set() == ScoreSet((2, 3, 6))
    assert {b.label for b in r.u_blocks} == {"X1_dominated", "X1_rest"}
    r.verify()


def test_triple_rejects_bad_order():
    for args in [(2, 2, 3), (1, 3, 2), (0, 1, 2), (3, 2, 1)]:
        with pytest.raises(ValueError):
            build(Family("Triple", args))


def test_triple_partial_domination_hits_lowest_indices():
    r = build(Family("Triple", (1, 2, 3)))
    g = r.graph
    # exactly one U vertex is beaten, and it is vertex 0
    assert g.arc(0, 1) is ArcState.V_TO_U
    assert g.arc(1, 1) is ArcState.ABSENT


# ---------------------------------------------------------------- geometric


def test_geometric_ratio2_small():
    r = build(Family("Geometric", (1, 2, 2)))
    g = r.graph
    assert (g.m, g.n) == (2, 2)
    pair = g.score_sequences()
    assert pair.a == (1, 2) and pair.b == (1, 4)
    assert g.score_set() == ScoreSet((1, 2, 4))
    r.verify()


def test_geometric_ratio2_block_sizes():
    r = build(Family("Geometric", (1, 2, 3)))
    assert block_sizes(r.u_blocks) == {"X0": 1, "X1": 1, "X3": 4}
    assert block_sizes(r.v_blocks) == {"Y0": 1, "Y2": 1, "Y3": 4}
    assert r.graph.score_set() == ScoreSet((1, 2, 4, 8))
    r.verify()


def test_geometric_layered_small():
    r = build(Family("Geometric", (1, 3, 2)))
    g = r.graph
    assert (g.m, g.n) == (7, 7)
    assert g.score_set() == ScoreSet((1, 3, 9))
    assert block_sizes(r.u_blocks) == {"X1": 1, "X2": 1, "X_layer2": 5}
    r.verify()


def alternating_part_size(a, d, n):
    """Independent closed form: a * (d^n - d^(n-1) + ... +- 1)."""
    return a * sum((-1) ** i * d ** (n - i) for i in range(n + 1))


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_geometric_layered_part_size_closed_form(a, d, n):
    g = build(Family("Geometric", (a, d, n))).graph
    expected = alternating_part_size(a, d, n)
    assert g.m == g.n == expected


def test_geometric_delegations():
    # n <= 1 builds the arc-free graph of {a} or {a, a*d}, not the singleton's cycle
    r = build(Family("Geometric", (2, 3, 0)))
    assert (r.graph.m, r.graph.n) == (2, 2)
    assert r.graph.score_set() == ScoreSet((2,))
    assert r.family == Family("Geometric", (2, 3, 0))
    assert r.cells == () and not r.graph.states.any()
    r = build(Family("Geometric", (2, 3, 1)))
    assert (r.graph.m, r.graph.n) == (6, 2)
    assert r.graph.score_set() == ScoreSet((2, 6))
    assert r.family == Family("Geometric", (2, 3, 1))
    assert r.cells == () and not r.graph.states.any()
    r = build(Family("Geometric", (3, 2, 1)))
    assert r.graph.score_set() == ScoreSet((3, 6))
    assert r.family == Family("Geometric", (3, 2, 1))
    assert r.cells == () and not r.graph.states.any()


def test_geometric_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build(Family("Geometric", (0, 2, 1)))
    with pytest.raises(ValueError):
        build(Family("Geometric", (1, 1, 2)))
    with pytest.raises(ValueError):
        build(Family("Geometric", (1, 2, -1)))


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_geometric_block_audit(a, d, n):
    build(Family("Geometric", (a, d, n))).verify()


# ---------------------------------------------------------------- arithmetic


def test_arithmetic_wide():
    r = build(Family("Arithmetic", (1, 2, 2)))
    g = r.graph
    assert (g.m, g.n) == (3, 3)
    assert g.score_set() == ScoreSet((1, 3, 5))
    u_scores, v_scores = per_vertex_scores(g)
    assert sorted(u_scores + v_scores) == [1, 1, 3, 3, 5, 5]
    r.verify()


def test_arithmetic_equal_odd_n():
    r = build(Family("Arithmetic", (2, 2, 1)))
    g = r.graph
    assert (g.m, g.n) == (4, 2)
    assert g.score_set() == ScoreSet((2, 4))
    r.verify()


def test_arithmetic_equal_n3():
    r = build(Family("Arithmetic", (1, 1, 3)))
    g = r.graph
    assert (g.m, g.n) == (3, 2)
    assert g.score_set() == ScoreSet((1, 2, 3, 4))
    r.verify()


def test_arithmetic_narrow_degenerate_k1():
    r = build(Family("Arithmetic", (3, 1, 2)))
    g = r.graph
    assert (g.m, g.n) == (4, 4)
    by_label = {b.label: b.score for b in r.u_blocks + r.v_blocks}
    assert by_label["X0"] == 4
    assert by_label["X1"] == 3
    assert by_label["Y0_dominated"] == 4
    assert by_label["Y0_rest"] == 4
    assert by_label["Y2"] == 5
    assert g.score_set() == ScoreSet((3, 4, 5))
    r.verify()


def test_arithmetic_narrow_partial_domination_targets_lowest():
    r = build(Family("Arithmetic", (3, 1, 4)))  # k=2, X3 exists and beats one Y0 vertex
    g = r.graph
    x3 = next(b for b in r.u_blocks if b.label == "X3")
    u = next(start for label, start, _ in spans(r.u_blocks) if label == "X3")
    assert g.arc(u, 0) is ArcState.U_TO_V
    assert g.arc(u, 1) is ArcState.ABSENT
    assert g.arc(u, 2) is ArcState.ABSENT
    r.verify()


def test_arithmetic_delegations():
    for params, values, shape in [
        ((2, 2, 0), (2,), (2, 2)),
        ((3, 1, 1), (3, 4), (4, 3)),
        ((2, 1, 0), (2,), (2, 2)),
    ]:
        r = build(Family("Arithmetic", params))
        assert r.graph.score_set() == ScoreSet(values)
        assert (r.graph.m, r.graph.n) == shape
        assert r.family == Family("Arithmetic", params)
        assert r.cells == () and not r.graph.states.any()


def test_arithmetic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build(Family("Arithmetic", (0, 1, 1)))
    with pytest.raises(ValueError):
        build(Family("Arithmetic", (1, 0, 1)))
    with pytest.raises(ValueError):
        build(Family("Arithmetic", (1, 1, -1)))


def eq_242_part_size(a, d, n):
    """Independent recomputation of the wide-case part size."""
    if n % 2 == 0:
        return n * d // 2 + a
    return (n + 1) * d // 2


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_arithmetic_wide_part_size_closed_form(a, n):
    for d in (a + 1, a + 2, 2 * a + 1):
        g = build(Family("Arithmetic", (a, d, n))).graph
        assert g.m == g.n == eq_242_part_size(a, d, n)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_arithmetic_scaling_when_difference_equals_start(a, n):
    got = build(Family("Arithmetic", (a, a, n))).graph.score_set()
    assert got.values == tuple(a * i for i in range(1, n + 2))


@pytest.mark.parametrize("params", [(1, 2, 3), (2, 3, 4), (3, 1, 3), (2, 2, 4), (4, 6, 5)])
def test_arithmetic_block_audit(params):
    build(Family("Arithmetic", params)).verify()


# ---------------------------------------------------------------- classify


def test_classify_small_sets_win():
    assert classify(ScoreSet((1, 2, 4))) == Family("Triple", (1, 2, 4))
    assert classify(ScoreSet((7,))) == Family("Singleton", (7,))
    assert classify(ScoreSet((2, 9))) == Family("Doubleton", (2, 9))


def test_classify_progressions():
    assert classify(ScoreSet((5, 7, 9, 11))) == Family("Arithmetic", (5, 2, 3))
    assert classify(ScoreSet((2, 6, 18, 54))) == Family("Geometric", (2, 3, 3))
    with pytest.raises(UnsupportedScoreSetError, match=r"no construction covers \{1,2,4,9\}"):
        classify(ScoreSet((1, 2, 4, 9)))
    # exact divisibility required for a geometric reading
    with pytest.raises(UnsupportedScoreSetError):
        classify(ScoreSet((2, 3, 5, 8)))


def test_classify_rejections():
    with pytest.raises(ValueError):
        classify(ScoreSet(()))
    # no builder covers 0, although {0, 2} has a 1x1 witness
    with pytest.raises(UnsupportedScoreSetError, match=r"no construction covers \{0,1,2\}"):
        classify(ScoreSet((0, 1, 2)))
    # a geometric progression, but of ratio 3/2
    with pytest.raises(UnsupportedScoreSetError, match="geometric progressions with an integer ratio"):
        classify(ScoreSet((8, 12, 18, 27)))


def test_build_rejects_an_unknown_family():
    with pytest.raises(KeyError):
        build(Family("Unsupported", (1, 2, 4, 9)))


@pytest.mark.parametrize(
    "values", [(7,), (2, 9), (1, 2, 4), (5, 7, 9, 11), (2, 6, 18, 54)]
)
def test_realize_records_the_classified_family(values):
    score_set = ScoreSet(values)
    assert realize(score_set).family == classify(score_set)


# ---------------------------------------------------------------- realize


def test_realize_singleton():
    r = realize(ScoreSet((7,)))
    assert (r.graph.m, r.graph.n) == (7, 7)
    assert r.graph.score_set() == ScoreSet((7,))


def test_realize_power_of_two_progression():
    r = realize(ScoreSet((1, 2, 4, 8, 16)))
    assert r.graph.score_set() == ScoreSet((1, 2, 4, 8, 16))
    assert check_bipartite_pair(r.graph.score_sequences()) is None


def test_realize_refuses_unsupported():
    with pytest.raises(UnsupportedScoreSetError):
        realize(ScoreSet((3, 5, 8, 14)))


def test_realize_refuses_zero_and_empty():
    with pytest.raises(ValueError):
        realize(ScoreSet((0,)))
    with pytest.raises(ValueError):
        realize(ScoreSet(()))


def test_record_reprs_match_the_readme():
    r = realize(ScoreSet((1, 2, 5)))
    assert repr(r.family) == "Family(name='Triple', params=(1, 2, 5))"
    assert repr(r.u_blocks[1]) == "Block(label='X2', size=1, score=5, rank=2)"


def test_verify_catches_tampering():
    r = build(Family("Singleton", (2,)))
    r.verify()
    for cell, state in [
        ((0, 0), ArcState.ABSENT),  # X1 against Y1 loses its arcs
        ((0, 1), ArcState.U_TO_V),  # X1 against Y2 is reversed
    ]:
        tampered = r._replace(cells=tuple({**dict(r.cells), cell: state}.items()))
        with pytest.raises(RealizationError):
            tampered.verify()
    wide = build(Family("Triple", (1, 2, 5)))
    wide.verify()
    x1, x2 = wide.u_blocks
    tampered = wide._replace(u_blocks=(x1, x2._replace(rank=1)))  # X2 ties Y1: no arcs
    with pytest.raises(RealizationError):
        tampered.verify()


def test_build_verifies_the_layout(monkeypatch):
    import scoresets.constructions as constructions

    def overpromising(a1, a2, a3):  # promises X1 one point above what it scores
        requested, u, v, cells = constructions._triple(a1, a2, a3)
        return requested, [u[0]._replace(score=u[0].score + 1), *u[1:]], v, cells

    monkeypatch.setitem(constructions._BUILDERS, "Triple", overpromising)
    with pytest.raises(RealizationError, match="block X1 scores 1, expected 2"):
        build(Family("Triple", (1, 2, 5)))


def test_verify_refuses_a_layout_of_another_score_set(monkeypatch):
    import scoresets.constructions as constructions

    def mislabeled(a1, a2, a3):  # says {1,2,6}, its blocks realize {1,2,5}
        _, u, v, cells = constructions._triple(1, 2, 5)
        return (a1, a2, a3), u, v, cells

    monkeypatch.setitem(constructions._BUILDERS, "Triple", mislabeled)
    with pytest.raises(RealizationError, match=r"^score set is \{1,2,5\}, requested \{1,2,6\}$"):
        build(Family("Triple", (1, 2, 6)))


def test_realize_refuses_a_build_of_another_score_set(monkeypatch):
    import scoresets.constructions as constructions

    monkeypatch.setattr(constructions, "classify", lambda score_set: Family("Triple", (1, 2, 6)))
    with pytest.raises(
        RealizationError, match=r"^builder realized \{1,2,6\}, caller asked for \{1,2,5\}$"
    ):
        realize(ScoreSet((1, 2, 5)))


def test_block_refuses_a_negative_size():
    assert Block("X", 0, 3).size == 0
    with pytest.raises(ValueError, match="^block X has negative size -1$"):
        Block("X", -1, 3)


def test_verify_words_the_criterion_violation(monkeypatch):
    import scoresets.constructions as constructions
    from scoresets.criteria import Violation

    def failing(a_runs, b_runs):
        return Violation((1, 1), 0, 2)

    monkeypatch.setattr(constructions, "check_bipartite_runs", failing)
    with pytest.raises(RealizationError, match=r"criterion: invalid at \(p=1, q=1\): 0 < 2$"):
        realize(ScoreSet((1, 2, 5)))


def test_realizations_compare_by_value():
    assert realize(ScoreSet((1, 2, 5))) == realize(ScoreSet((1, 2, 5)))
    assert realize(ScoreSet((1, 2, 5))) != realize(ScoreSet((1, 2, 6)))


def test_ladder_layout_memory_grows_with_blocks_not_pairs():
    # {1..k}: k/2 + 1 U and k/2 V blocks of size 1, about k**2 / 4 vertex pairs
    for k in (2000, 20000):
        tracemalloc.start()
        try:
            build(classify(ScoreSet(range(1, k + 1)))).verify()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{{1..{k}}}: peak {peak} bytes"


def test_above_the_dense_limit_only_the_exports_refuse():
    # {10**20} is 10**20 x 10**20 and builds and verifies in Python ints
    huge = build(Family("Singleton", (10**20,)))
    assert huge.m == huge.n == 10**20
    assert huge._block_scores() == ([10**20] * 2, [10**20] * 2)
    # {2,4,...,32770} is 16386 x 16386, just above the dense limit
    ladder = realize(ScoreSet(range(2, 32771, 2)))
    for r in (ladder, huge):
        for export in (lambda: r.graph, r.to_json, r.to_dot):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="dense limit"):
                    export()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, f"{r.m}x{r.n}: peak {peak} bytes"


@pytest.mark.parametrize(
    "values",
    [
        tuple(3**i for i in range(9)),  # Geometric ratio 3, 4921x4921
        (1403,),
        (1122, 1752),
        (140, 420, 1688),  # wide triple
        (561, 1402, 2243),  # narrow triple
        (140, 770, 1400, 2030, 2660),  # wide arithmetic
        (1000, 2000, 3000, 4000),  # equal arithmetic
        (1000, 1100, 1200, 1300, 1400),  # narrow arithmetic
        (200, 400, 800, 1600, 3200),  # Geometric ratio 2
    ],
)
def test_build_verifies_from_block_scores(values):
    # verify audits the blocks; it never builds arrays of per-vertex
    # scores, so realize and verify run where numpy cannot be imported
    script = """
import sys
sys.modules["numpy"] = None
from scoresets import ScoreSet, realize
values = ScoreSet(map(int, sys.argv[1:]))
r = realize(values)
r.verify()
print(r.requested == values, r.m, r.n)
"""
    proc = run_python(script, *map(str, values))
    assert proc.returncode == 0, proc.stderr
    r = realize(ScoreSet(values))
    assert proc.stdout == f"True {r.m} {r.n}\n"


def test_export_cannot_drift_from_its_layout():
    r = realize(ScoreSet((1, 2, 5)))
    g = r.graph
    with pytest.raises(ValueError):  # a graph never changes after it is built
        g.states[0, 0] = ArcState.V_TO_U
    assert r.graph == g and r.graph is not g  # each access builds its own graph
    assert BipartiteOrientedGraph.from_json(r.to_json()) == g
    assert r.to_dot() == realize(ScoreSet((1, 2, 5))).to_dot()


def test_graph_catches_a_fill_that_disagrees_with_the_layout(monkeypatch):
    from_states = BipartiteOrientedGraph.from_states

    def flipped(cls, states):  # the layout's matrix with pair (0, 0) flipped
        states = states.copy()
        states[0, 0] = ArcState.V_TO_U if states[0, 0] == ArcState.U_TO_V else ArcState.U_TO_V
        return from_states(states)

    monkeypatch.setattr(BipartiteOrientedGraph, "from_states", classmethod(flipped))
    r = build(Family("Singleton", (2,)))
    r.verify()  # the layout itself is sound
    with pytest.raises(RealizationError):
        r.graph
    for fmt in ("json", "dot"):
        with pytest.raises(RealizationError):  # when asked for, before any piece
            r.texts(fmt)


# ---------------------------------------------------------- golden output

# sha256 of to_json() and to_dot() for one small set per builder branch;
# the machine formats are byte-stable, so these digests never change
GOLDEN = {
    "singleton": (
        (3,),
        "4b9294d1467208d79806a4091e99a57a9e834b728a8b1db531c50401e796fe40",
        "e08eaf7852a83bdb00aa4e84ca4a0edfa743c6d51526de21d730284579edd4c9",
    ),
    "doubleton": (
        (2, 5),
        "1d4a3e65137e7ef7c0a0ac6f554ab9c6deb62c0bf53d22abc517827878035021",
        "af61e891eec9a2fc5cd039e397cbd77db73d44aaaca8c2326b52130e65c417ab",
    ),
    "triple-wide": (
        (1, 2, 5),
        "7c67f45c911e718b689e1f254dee2858e521c9a10a3d00eac32156f3db77c6fe",
        "0e03ec0a202442e944e231225f63d3da5b6d27c099b702b08f1841f2bbbd9070",
    ),
    "triple-narrow": (
        (2, 3, 5),
        "a9fe383dcc2518e1bb23825d6f22154dc9df7e72c49f0f85091cda534694ddb1",
        "e9778cc309968ec026589ff9d00320157a9d85a0aeeeb2ac8d78868c0ac4860c",
    ),
    "geometric-ratio2": (
        (1, 2, 4, 8),
        "2e4a9e6a3576f3d8c618e9f8712e50be072cfe26447a0081a14c39b1d18bdb73",
        "e3b8358af080fbadc1c6a847cd061037f9f38dd2373b5cca10117626c5799b8a",
    ),
    "geometric-layered": (
        (1, 3, 9, 27),
        "1b060ad0b17bdc60d5748fa4c13ddc86a75334cbe068e8d6480e2a17900ae960",
        "d37f043483e1481ce8a11af6aee990528fbe76994fa7fab623c5eeb580079d49",
    ),
    "arithmetic-wide": (
        (1, 3, 5, 7),
        "99119cb23e46a50e1bf38dfe05fa2e2ed121d401f796c1401e037897028697e2",
        "797154c243c2cb946c2bb957d631023808e6c00ddf94998a16a6ddebebb40467",
    ),
    "arithmetic-equal": (
        (2, 4, 6, 8),
        "13222d18cc4eff9527d5b96baddac12aa474e6334ddff298a17e9167a47f5cb3",
        "4e07f8fbcf2cfd61673689b01e429cc5b1e8bd0b111190534ac2881b780f86c2",
    ),
    "arithmetic-narrow": (
        (3, 4, 5, 6, 7),
        "8b0672997b8a561ce4aa5304bd00ab93d8492a038ce94a0986f071d600c0c502",
        "4a312b812b9dc3ac2f029b2570a33071436ad4e752f5f850df0c8ce7c9443d73",
    ),
}


@pytest.mark.parametrize("branch", sorted(GOLDEN))
def test_realize_output_matches_golden_digest(branch):
    values, json_digest, dot_digest = GOLDEN[branch]
    r = realize(ScoreSet(values))
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == json_digest
    assert hashlib.sha256(r.to_dot().encode()).hexdigest() == dot_digest


@pytest.mark.parametrize("branch", sorted(GOLDEN))
def test_cli_export_bytes_match_golden_digest(branch, tmp_path, capsys):
    # the streamed CLI writes to_json() and a newline, and to_dot(), to
    # stdout and to --out alike
    values, json_digest, dot_digest = GOLDEN[branch]
    target = tmp_path / "export"
    for fmt, digest in (("json", json_digest), ("dot", dot_digest)):
        argv = ["realize", "--set", ",".join(map(str, values)), "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        for text in (out, target.read_text(encoding="utf-8")):
            if fmt == "json":
                assert text.endswith("}\n")
                text = text[:-1]
            assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_realize_output_matches_golden_digest_at_1640x1640():
    # {1,3,...,3^7}: many equal rows and four-digit indices; the JSON digest
    # covers the trailing newline the CLI writes
    r = realize(ScoreSet(tuple(3**i for i in range(8))))
    assert (r.m, r.n) == (1640, 1640)
    json_digest = hashlib.sha256((r.to_json() + "\n").encode()).hexdigest()
    assert json_digest == "baeed4616352b26bbe3d6d7d5b8c7bdcb4139f9691715937c5b9a7d92189c8de"
    dot_digest = hashlib.sha256(r.to_dot().encode()).hexdigest()
    assert dot_digest == "70b299634aa0ae87aceffc48453f114b6f10beefcf961af1f87666e25cc744ff"


@pytest.mark.parametrize(
    "values",
    [values for values, _, _ in GOLDEN.values()]
    + [(1,), (1, 2), (1, 2, 4), (2, 3, 6), tuple(range(1, 13))],
)
def test_layout_scores_equal_dense_scores(values):
    # every builder branch, plus layouts with empty blocks: X1, X2, Y1, Y2
    # of {1} and {1, 2}, X1_rest of the narrow triples {1, 2, 4} and {2, 3, 6};
    # {1..12} has blocks of size 1
    r = realize(ScoreSet(values))
    g = r.graph
    assert layout_scores(r) == g.scores() == per_vertex_scores(g)
    assert (r.m, r.n) == (g.m, g.n)


@pytest.mark.parametrize("branch", sorted(GOLDEN))
def test_only_singleton_and_doubleton_have_cells(branch):
    # every other branch is a rank layout; only the singleton's cycle needs cells
    values, _, _ = GOLDEN[branch]
    assert bool(realize(ScoreSet(values)).cells) == (branch in ("singleton", "doubleton"))


@st.composite
def rank_layouts(draw):
    """Layouts of up to five blocks a part, sizes 0..3 (at least one vertex
    a part), ranks from {None, 0..3} with ties, and up to four cells over
    any block pairs, ranked or not."""

    def part(prefix):
        sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any))
        ranks = st.none() | st.integers(0, 3)
        return [Block(f"{prefix}{i}", size, 0, draw(ranks)) for i, size in enumerate(sizes)]

    u, v = part("X"), part("Y")
    pairs = st.tuples(st.integers(0, len(u) - 1), st.integers(0, len(v) - 1))
    cells = draw(st.dictionaries(pairs, st.sampled_from(ArcState), max_size=4))
    return (1,), u, v, cells


@given(rank_layouts())
@example(  # a tie, an empty ranked block, a cell over a ranked and one over an unranked pair
    (
        (1,),
        [Block("X0", 2, 0, 1), Block("X1", 0, 0, 3), Block("X2", 1, 0, None)],
        [Block("Y0", 1, 0, 1), Block("Y1", 3, 0, 0), Block("Y2", 0, 0, 2)],
        {(0, 1): ArcState.V_TO_U, (2, 0): ArcState.U_TO_V},
    )
)
def test_rank_layout_scores_equal_per_vertex_scores(layout):
    values, u, v, cells = layout
    r = Realization(tuple(u), tuple(v), tuple(cells.items()), ScoreSet(values), Family("Layout", ()))
    assert layout_scores(r) == per_vertex_scores(r.graph)


# ------------------------------------------------- oracle cross-verification


@pytest.mark.parametrize(
    "values,builder",
    [
        ((2,), lambda: build(Family("Singleton", (2,)))),
        ((3,), lambda: build(Family("Singleton", (3,)))),
        ((1, 2), lambda: build(Family("Doubleton", (1, 2)))),
        ((2, 3), lambda: build(Family("Doubleton", (2, 3)))),
        ((1, 2, 3), lambda: build(Family("Triple", (1, 2, 3)))),
        ((1, 2, 4), lambda: build(Family("Geometric", (1, 2, 2)))),
        ((1, 2, 3, 4), lambda: build(Family("Arithmetic", (1, 1, 3)))),
    ],
)
def test_small_constructions_confirmed_by_search(values, builder):
    g = builder().graph
    assert g.score_set().values == values
    witness = bounded_search(ScoreSet(values), g.m, g.n)
    assert witness is not None
    assert witness.score_set().values == values
