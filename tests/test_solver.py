"""GF(2) systems, arc consistency, and the three solving routes."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_gf2,
    brute_lhom,
    brute_lhom_all,
    hl61_with_ends_swapped,
    naive_arc_consistency,
    planted_instance,
    random_bipartite_signed_graph,
    random_instance,
    random_lists,
    random_path_target,
    random_relabel,
    random_segmented_path,
    random_signed_graph,
    random_switching,
    ref_components,
    ref_solve_ordered,
    ref_solve_via_h1,
    solution_errors,
    took,
)
from sephom import (
    BICOLOURED,
    BLUE,
    RED,
    SignedGraph,
    apply_switching,
    bipartition,
    build_h0,
    build_h1,
    build_hl,
    build_reduction_target,
    switching_equivalent,
)
from sephom import ordering, sgcore, solver, targets
from sephom.classify import POLYNOMIAL, classify, classify_path
from sephom.files import parse_graph, parse_instance, serialize_graph, serialize_instance
from sephom.hardness import QuadCsp, build_reduction
from sephom.ordering import Ordering, ordering_for_cycle_target
from sephom.solver import (
    Gf2System,
    Instance,
    arc_consistency,
    check_solution,
    gf2_solve,
    solve,
    solve_h1,
    solve_ordered,
    solve_oracle,
)


def blue_path(n):
    return SignedGraph(n, [(i, i + 1, BLUE) for i in range(n - 1)])


def full_lists(n, h):
    return [range(h.n)] * n


def unbalanced_c4():
    return SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])


def test_instance_validation():
    g = blue_path(2)
    with pytest.raises(ValueError, match="one list per vertex"):
        Instance(g, [range(2)])
    with pytest.raises(ValueError, match="negative"):
        Instance(g, [[0], [-1]])


def test_instance_rejects_list_values_that_are_not_ints():
    # A float or a string used to get through and fail later as a TypeError;
    # True is an int subclass but no vertex id, as `sephom verify` holds.
    g = blue_path(2)
    for bad in (0.5, "1", True, None):
        with pytest.raises(ValueError, match="non-negative ints"):
            Instance(g, [[0], [bad]])
    assert Instance(g, [[0], [1]]).lists == (frozenset({0}), frozenset({1}))


def test_lists_must_fit_the_target():
    inst = Instance(blue_path(2), [[0], [9]])
    with pytest.raises(ValueError, match="outside the target"):
        solve_oracle(inst, build_h0())


def test_gf2_validation():
    with pytest.raises(ValueError, match="duplicate variable"):
        gf2_solve(Gf2System(("x", "x"), ()))
    with pytest.raises(ValueError, match="undeclared variable"):
        gf2_solve(Gf2System(("x",), ((("y",), 0),)))


def test_gf2_examples():
    sys = Gf2System(("x", "y"), ((("x", "y"), 1), (("y",), 1)))
    assert gf2_solve(sys) == {"x": 0, "y": 1}
    infeasible = Gf2System(("x", "y"), ((("x",), 0), (("x", "y"), 0), (("y",), 1)))
    assert gf2_solve(infeasible) is None
    assert gf2_solve(Gf2System((), ())) == {}
    # A variable listed twice cancels, as in GF(2) arithmetic.
    assert gf2_solve(Gf2System(("x", "y"), ((("x", "y", "x"), 1),))) == {"x": 0, "y": 1}
    assert gf2_solve(Gf2System(("x",), ((("x", "x"), 1),))) is None


def test_gf2_free_variables_default_to_zero():
    sys = Gf2System(("x", "y", "z"), ((("x", "y"), 1),))
    sol = gf2_solve(sys)
    assert sol["z"] == 0
    assert (sol["x"] + sol["y"]) % 2 == 1


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.integers(0, 1)),
        max_size=10,
    ),
)
@settings(max_examples=150)
def test_gf2_agrees_with_exhaustive_search(nvars, raw):
    names = tuple(f"v{i}" for i in range(nvars))
    equations = tuple(
        (tuple(names[i] for i in range(nvars) if bits >> i & 1), rhs)
        for bits, rhs in raw
    )
    got = gf2_solve(Gf2System(names, equations))
    want = brute_gf2(names, equations)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(sum(got[v] for v in lhs) % 2 == rhs for lhs, rhs in equations)


def test_arc_consistency_example():
    h = build_hl(5)
    inst = Instance(blue_path(4), [[1], range(8), range(8), [4]])
    sets = arc_consistency(inst, h)
    assert [sorted(s) for s in sets] == [[1], [0, 2], [3, 5], [4]]


def test_arc_consistency_detects_dead_ends():
    inst = Instance(blue_path(2), [[0], [0]])
    assert arc_consistency(inst, build_h0()) is None
    # An empty list fails before any propagation, on the oracle too.
    empty = Instance(blue_path(2), [[0], []])
    assert arc_consistency(empty, build_h0()) is None
    assert solve_oracle(empty, build_h0()) is None


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_arc_consistency_matches_naive_fixpoint(seed):
    rng = random.Random(seed)
    h = rng.choice((build_h0(), build_h1(), build_hl(5)))
    inst = random_instance(rng, rng.randint(1, 6), h)
    got = arc_consistency(inst, h)
    want = naive_arc_consistency(inst, h)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert [set(s) for s in got] == [set(s) for s in want]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_arc_consistency_keeps_every_solution(seed):
    rng = random.Random(seed)
    h = rng.choice((build_h0(), build_h1()))
    inst = random_instance(rng, rng.randint(1, 5), h)
    sets = arc_consistency(inst, h)
    for mapping, _ in brute_lhom_all(inst, h):
        assert sets is not None
        assert all(mapping[v] in sets[v] for v in range(inst.g.n))


def test_solve_oracle_examples():
    c4 = SignedGraph(4, [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])
    h0 = build_h0()
    sol = solve_oracle(Instance(c4, full_lists(4, h0)), h0)
    assert sol is not None
    assert check_solution(Instance(c4, full_lists(4, h0)), h0, sol) == []
    bad = unbalanced_c4()
    assert solve_oracle(Instance(bad, full_lists(4, h0)), h0) is None
    h1 = build_h1()
    sol = solve_h1(Instance(bad, full_lists(4, h1)))
    assert sol is not None


def test_solve_oracle_frozen_outputs():
    # Maps, switchings and backtrack counts as the oracle first returned
    # them. The three-quadruple reduction has many edges sharing one support
    # table, and the random instance against build_reduction_target(5) is one
    # of the rare ones that backtracks.
    reductions = [
        (QuadCsp("pqrs", ["pqrs"]), 5,
         (0, 1, 2, 3, 4, 5, 0, 5), [1, 2, 4, 5]),
        (QuadCsp("pq", ["pqqp", "qppq"]), 7,
         (0, 1, 2, 3, 4, 5, 6, 7, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 7,
          1, 6, 1, 2, 3, 4, 5, 6, 1, 6, 1, 2, 3, 4, 5, 6),
         [4, 5, 6, 7, 8, 10, 11, 12, 13, 19, 28, 29, 30, 31, 32, 33, 34, 35]),
        (QuadCsp("pqrs", ["pqrs", "qrsp", "rppq"]), 5,
         (0, 1, 2, 3, 4, 5, 0, 5, 0, 1, 2, 3, 4, 5, 0, 5, 0, 1, 2, 3, 4, 5,
          0, 5, 1, 4, 1, 2, 3, 4, 1, 1, 2, 3, 4, 1, 1, 2, 3, 4, 4),
         [1, 2, 4, 5, 7, 9, 10, 12, 13, 14, 16, 19, 35, 36, 37, 38, 39, 40]),
    ]
    cases = [
        (build_reduction(csp, ell), build_reduction_target(ell), mapping, flipped, 0)
        for csp, ell, mapping, flipped in reductions
    ]
    for seed, h, mapping, flipped, backtracks in (
        (3458, build_reduction_target(5),
         (7, 2, 1, 4, 3, 6, 1, 1, 3, 3, 3, 0, 0, 0), [2, 5, 6, 11, 12], 2),
        (70, build_h1(), (0, 1, 3, 4, 0, 0, 0, 0, 0, 3, 3, 2, 4, 5), [1, 3, 6, 12], 0),
        (161, build_hl(7), (2, 1, 0, 0, 2, 0, 3, 1, 3, 4, 3, 5, 0, 0), [1, 8, 10], 0),
    ):
        rng = random.Random(seed)
        inst = random_instance(rng, 14, h, p_edge=0.18, bipartite=seed % 2 == 0, max_list=h.n)
        cases.append((inst, h, mapping, flipped, backtracks))
    for inst, h, mapping, flipped, backtracks in cases:
        stats = {}
        sol = solve_oracle(inst, h, stats)
        assert sol.mapping == mapping
        assert sorted(sol.switching.flipped) == flipped
        assert stats == {"backtracks": backtracks}
    # A seeded sweep of 2,000 calls, hashed as the oracle first answered it:
    # full and partial lists against templates, a non-bipartite target, one
    # with isolated vertices and random ones, then reductions at ell = 5, 7.
    rng = random.Random(2017)
    hs = [build_h0(), build_h1(), build_hl(3), build_hl(5), build_reduction_target(5),
          SignedGraph(4, [(0, 1, BLUE), (1, 2, RED), (0, 2, BICOLOURED), (2, 3, BLUE)]),
          SignedGraph(6, [(0, 1, RED), (1, 2, BICOLOURED), (2, 3, BLUE), (0, 3, BLUE)])]
    hs += [random_signed_graph(rng, rng.randint(3, 7)) for _ in range(8)]
    sweep = []
    for _ in range(1800):
        h = rng.choice(hs)
        n = rng.randint(1, 12)
        inst = random_instance(rng, n, h, p_edge=rng.choice((0.2, 0.4)),
                               bipartite=rng.random() < 0.5, max_list=rng.randint(1, h.n))
        if rng.random() < 0.3:
            inst = Instance(inst.g, full_lists(n, h))
        sweep.append((inst, h))
    for _ in range(200):
        ell = rng.choice((5, 7))
        quads = [[rng.choice("pqrs") for _ in range(4)] for _ in range(rng.randint(1, 3))]
        csp = QuadCsp([x for x in "pqrs" if any(x in q for q in quads)], quads)
        sweep.append((build_reduction(csp, ell), build_reduction_target(ell)))
    digest = hashlib.sha256()
    for inst, h in sweep:
        stats = {}
        sol = solve_oracle(inst, h, stats)
        out = None if sol is None else (sol.mapping, sorted(sol.switching.flipped))
        digest.update(repr((out, stats)).encode())
    assert digest.hexdigest() == (
        "e8b0ff2f2bd5aac9b3fd0325447d928b6af06e5ed4c0dadbd5dcc44bc0a1121a"
    )


def test_solve_oracle_lifts_each_target_once_across_calls(monkeypatch):
    # Every vertex has its own list, and every edge colour occurs. Equal
    # targets share one cache entry, so a rebuilt copy of h is not lifted.
    built = []
    real = solver._lifted_rows

    def counted(h):
        built.append(h)
        return real(h)

    monkeypatch.setattr(solver, "_lifted_rows", counted)
    solver._oracle_tables.cache_clear()
    h = build_reduction_target(7)
    lists = [frozenset(b for b in range(h.n) if v >> b & 1) for v in range(1, 2**h.n, 37)]
    colours = (BLUE, RED, BICOLOURED)
    g = SignedGraph(len(lists), [(v, v + 1, colours[v % 3]) for v in range(len(lists) - 1)])
    rebuilt = SignedGraph(h.n, [(v, u, c) for u, v, c in reversed(h.edges)])
    for inst, target in ((Instance(g, lists), h), (Instance(g, full_lists(g.n, h)), h),
                         (Instance(g, lists), rebuilt)):
        solve_oracle(inst, target)
    assert built == [h]
    other = build_reduction_target(5)
    solve_oracle(Instance(g, full_lists(g.n, other)), other)
    assert built == [h, other]


def test_solve_oracle_warm_and_cold_caches_agree():
    # The frozen sweep once from an empty cache and once on the entries it
    # left: kept tables and memos change no output.
    solver._oracle_tables.cache_clear()
    test_solve_oracle_frozen_outputs()
    cold = solver._oracle_tables.cache_info()
    test_solve_oracle_frozen_outputs()
    assert solver._oracle_tables.cache_info().hits > cold.hits > 0
    h = build_reduction_target(5)
    solve_oracle(Instance(blue_path(2), full_lists(2, h)), h)
    with pytest.raises(ValueError, match="list value outside the target"):
        solve_oracle(Instance(blue_path(2), [{0}, {h.n}]), h)


def test_solve_oracle_cache_stays_bounded():
    rng = random.Random(41)
    solver._oracle_tables.cache_clear()
    maxsize = solver._oracle_tables.cache_info().maxsize
    for n in range(3, 3 + maxsize + 4):
        h = random_signed_graph(rng, n)
        solve_oracle(Instance(blue_path(2), full_lists(2, h)), h)
    assert solver._oracle_tables.cache_info().currsize == maxsize
    # Distinct random lists against one target grow the list map and the
    # memos past the cap; the next call clears each one that is.
    h = random_signed_graph(rng, 14, p_edge=0.6)
    _, memos, lifted = solver._oracle_tables(h)
    peak = 0
    for _ in range(700):
        inst = random_instance(rng, 10, h, p_edge=0.3, max_list=h.n)
        solve_oracle(inst, h)
        peak = max(peak, len(lifted), *map(len, memos.values()))
    assert peak > solver._MEMO_CAP
    solve_oracle(Instance(blue_path(1), [{0}]), h)
    assert max(len(lifted), *map(len, memos.values())) <= solver._MEMO_CAP


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_solve_oracle_agrees_with_exhaustive_search(seed):
    rng = random.Random(seed)
    h = rng.choice((build_h0(), build_h1(), build_hl(3), build_reduction_target(5)))
    inst = random_instance(rng, rng.randint(1, 5), h)
    sol = solve_oracle(inst, h)
    brute = brute_lhom(inst, h)
    assert (sol is not None) == (brute is not None)
    if sol is not None:
        assert solution_errors(inst, h, sol.mapping, sol.switching.flipped) == []


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_solve_h1_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    h = build_h1()
    inst = random_instance(rng, rng.randint(1, 8), h, bipartite=rng.random() < 0.7)
    sol = solve_h1(inst)
    other = solve_oracle(inst, h)
    assert (sol is None) == (other is None)
    if sol is not None:
        assert check_solution(inst, h, sol) == []
        assert solution_errors(inst, h, sol.mapping, sol.switching.flipped) == []


def test_solve_h1_frozen_examples():
    h = build_h1()
    c6 = SignedGraph(
        6,
        [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE),
         (0, 4, BLUE), (4, 5, RED), (3, 5, BLUE)],
    )
    sol = solve_h1(Instance(c6, full_lists(6, h)))
    assert sol is not None
    assert check_solution(Instance(c6, full_lists(6, h)), h, sol) == []

    glued = SignedGraph(
        7,
        [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE),
         (0, 4, BLUE), (4, 5, BLUE), (5, 6, BLUE), (0, 6, BLUE)],
    )
    sol = solve_h1(Instance(glued, full_lists(7, h)))
    assert sol is not None

    # Ground vertices 0 (list {0}) and 3 (list {3}) join two regions. Region
    # {1, 2} fits the short side only and its path holds one red edge; region
    # {4, 5} fits both sides, but its path holds one red edge too, so the
    # cycle through both has even sign and {4, 5} must go short as well.
    forced = SignedGraph(
        6,
        [(0, 1, BLUE), (1, 2, RED), (2, 3, BLUE),
         (0, 4, BLUE), (4, 5, RED), (5, 3, BLUE)],
    )
    forced_lists = [[0], [4], [5], [3], [1, 4], [2, 5]]
    # Region {1, 2} alone: short-only, touching both ground classes.
    short_only = SignedGraph(4, [(0, 1, BLUE), (1, 2, RED), (2, 3, BLUE)])
    # Region {1, 2, 3} meets ground vertex 0 from 1 and from 3 across a cycle
    # of odd sign, which no side of H1 can take.
    twice = SignedGraph(4, [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, RED)])
    # One region, no ground vertex, around a cycle of odd sign: its red
    # parity walk conflicts before any side is tried.
    odd_region = SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])
    for g, lists, feasible in (
        (forced, forced_lists, True),
        (short_only, forced_lists[:4], True),
        (twice, [[0], [1, 4], [2, 5], [1, 4]], False),
        (odd_region, [[2, 5], [1, 4], [2, 5], [1, 4]], False),
    ):
        inst = Instance(g, lists)
        sol = solve_h1(inst)
        assert (sol is not None) == feasible == (solve_oracle(inst, h) is not None)
        if sol is not None:
            assert check_solution(inst, h, sol) == []
    assert solve_h1(Instance(forced, forced_lists)).mapping == (0, 4, 5, 3, 4, 5)


def test_solve_ordered_validates_its_inputs():
    h = build_hl(3)
    inst = Instance(blue_path(2), full_lists(2, h))
    bad = Ordering(black_order=(1, 3, 4), white_order=(0, 2, 5))
    with pytest.raises(ValueError, match="fails verification"):
        solve_ordered(inst, h, bad)
    # A red target edge is solved as given, with its sign.
    red_target = SignedGraph(2, [(0, 1, RED)])
    red_inst = Instance(blue_path(2), full_lists(2, red_target))
    sol = solve_ordered(red_inst, red_target, Ordering((1,), (0,)))
    assert sol is not None
    assert check_solution(red_inst, red_target, sol) == []
    # H1 has a special min ordering but no switching makes it semi-balanced.
    h1 = build_h1()
    with pytest.raises(ValueError, match="not semi-balanced"):
        solve_ordered(
            Instance(blue_path(2), full_lists(2, h1)), h1, ordering_for_cycle_target("H1")
        )


def test_solve_ordered_rejects_a_broken_large_ordering():
    h, bad = hl61_with_ends_swapped()
    inst = Instance(blue_path(2), full_lists(2, h))
    assert solve_ordered(inst, h, ordering_for_cycle_target("Hl", 61)) is not None
    with pytest.raises(ValueError, match="ordering fails verification"):
        solve_ordered(inst, h, bad)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_solve_ordered_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    h = build_hl(rng.choice((3, 5)))
    o = ordering_for_cycle_target("Hl", h.n - 3)
    inst = random_instance(rng, rng.randint(1, 7), h, bipartite=rng.random() < 0.7)
    stats = {}
    sol = solve_ordered(inst, h, o, stats=stats)
    other = solve_oracle(inst, h)
    assert (sol is None) == (other is None)
    if inst.g.n <= 5:
        assert (sol is None) == (brute_lhom(inst, h) is None)
    if sol is not None:
        assert check_solution(inst, h, sol) == []


def test_deep_paths_solve_on_every_route():
    # A 5,000-vertex path is deeper than Python's default recursion limit.
    n = 5_000
    edge = SignedGraph(2, [(0, 1, BLUE)])
    inst = Instance(blue_path(n), full_lists(n, edge))
    for sol in (
        solve_oracle(inst, edge),
        solve_ordered(inst, edge, Ordering((1,), (0,))),
    ):
        assert sol is not None
        assert check_solution(inst, edge, sol) == []
    h1 = build_h1()
    inst = Instance(blue_path(n), full_lists(n, h1))
    sol = solve_h1(inst)
    assert sol is not None
    assert check_solution(inst, h1, sol) == []


def test_solve_ordered_needs_no_backtracking():
    # The oracle-style search with rank value order needed two backtracks on
    # this instance; the least-value-by-rank rule decides it with none.
    h = build_hl(3)
    o = ordering_for_cycle_target("Hl", 3)
    g = SignedGraph(
        7,
        [
            (0, 2, BLUE),
            (0, 3, RED),
            (0, 4, RED),
            (1, 5, RED),
            (2, 5, BLUE),
            (3, 5, BLUE),
            (4, 5, RED),
        ],
    )
    inst = Instance(
        g, [[5], [1, 2, 4], [4], [0, 1, 4], [0, 1, 4], [1, 5], [0]]
    )
    stats = {}
    assert solve_ordered(inst, h, o, stats=stats) is None
    assert solve_oracle(inst, h) is None
    assert stats["backtracks"] == 0


def test_solve_ordered_takes_least_values_by_rank_and_checks_balance():
    # Black 5 ranks first although 3 has the lower id; 3 and 0 are not
    # adjacent, 5 and 0 are.
    h = SignedGraph(
        7, [(i, i + 1, BLUE) for i in range(6)] + [(0, 5, BICOLOURED), (2, 5, BICOLOURED)]
    )
    o = Ordering(black_order=(5, 1, 3), white_order=(0, 2, 4, 6))
    sol = solve_ordered(Instance(blue_path(2), [[3, 5], [0, 2]]), h, o)
    assert sol.mapping == (5, 0)
    # An unbalanced 4-cycle maps onto a single blue edge under no switching,
    # but onto Hl(3) through its bicoloured chord.
    edge = SignedGraph(2, [(0, 1, BLUE)])
    c4 = unbalanced_c4()
    assert solve_ordered(Instance(c4, full_lists(4, edge)), edge, Ordering((1,), (0,))) is None
    hl = build_hl(3)
    inst = Instance(c4, full_lists(4, hl))
    sol = solve_ordered(inst, hl, ordering_for_cycle_target("Hl", 3))
    assert sol is not None
    assert check_solution(inst, hl, sol) == []


def polynomial_target(rng):
    """A polynomial path with at most 14 vertices, or Hl(ell) with ell <= 11,
    with its special min ordering."""
    if rng.random() < 0.3:
        ell = rng.choice((3, 5, 7, 9, 11))
        return build_hl(ell), ordering_for_cycle_target("Hl", ell)
    while True:
        g = random_path_target(rng, rng.randint(2, 14), p_chord=rng.choice((0.1, 0.3)))
        v = classify_path(g)
        if v.complexity == POLYNOMIAL:
            return g, v.ordering


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_solve_ordered_decides_polynomial_targets_exactly(seed):
    rng = random.Random(seed)
    h, o = polynomial_target(rng)
    n = rng.randint(1, 10)
    inst = random_instance(
        rng, n, h, bipartite=rng.random() < 0.6, max_list=rng.randint(1, h.n)
    )
    stats = {}
    sol = solve_ordered(inst, h, o, stats)
    assert stats["backtracks"] == 0
    assert (sol is None) == (solve_oracle(inst, h) is None)
    if 2**n * math.prod(len(l) for l in inst.lists) <= 2 * 10**4:
        assert (sol is None) == (brute_lhom(inst, h) is None)
    if sol is not None:
        assert check_solution(inst, h, sol) == []
    # The same target under a switching: same decision and map, its own signs.
    switched = apply_switching(h, random_switching(rng, h.n))
    other = solve_ordered(inst, switched, o)
    assert (other is None) == (sol is None)
    if other is not None:
        assert other.mapping == sol.mapping
        assert check_solution(inst, switched, other) == []


def test_arc_consistency_from_the_least_vertex_places_each_component():
    # Every edge of a bipartite target joins its two classes, so restricting
    # a component's least vertex to one class and running arc consistency
    # reaches the same fixpoint as restricting every vertex to the class of
    # its side in a 2-colouring, and wipes out a list on an odd cycle.
    rng = random.Random(2022)
    seen = {"yes": 0, "no": 0, "odd": 0}
    for _ in range(6000):
        h = random_bipartite_signed_graph(rng, rng.randint(1, 8), p_edge=rng.uniform(0.2, 0.9))
        part = bipartition(h)
        classes = (solver._mask_of(part.black), solver._mask_of(part.white))
        n = rng.randint(1, 9)
        maker = random_bipartite_signed_graph if rng.random() < 0.5 else random_signed_graph
        g = maker(rng, n, p_edge=rng.uniform(0.1, 0.6))
        base = [solver._mask_of(l) for l in random_lists(rng, n, h.n, rng.randint(1, h.n))]
        nbrs = solver._target_nbrs(g, h.adj_mask, h.adj_mask, h.bic_mask, {})
        adj = [[] for _ in range(n)]
        for u, v, _ in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        side = {}
        for root in range(n):
            if root in side:
                continue
            side[root] = 0
            comp, odd = [root], False
            for v in comp:
                for w in adj[v]:
                    if w not in side:
                        side[w] = 1 - side[v]
                        comp.append(w)
                    odd |= side[w] == side[v]
            for k in (0, 1):
                rooted = list(base)
                rooted[root] &= classes[k]
                ok = rooted[root] != 0 and solver._propagate(nbrs, rooted, comp, [])
                if odd:
                    assert not ok
                    seen["odd"] += 1
                    continue
                placed = list(base)
                for v in comp:
                    placed[v] &= classes[k ^ side[v]]
                assert ok == (all(placed[v] for v in comp) and solver._propagate(nbrs, placed, comp, []))
                if ok:
                    assert [rooted[v] for v in comp] == [placed[v] for v in comp]
                seen["yes" if ok else "no"] += 1
    assert min(seen.values()) > 1500


def test_side_loop_is_linear_in_the_number_of_components():
    # A perfect matching has one component per edge; a loop that copied all
    # the lists for each component and side took about 13 times as long on
    # four times as many vertices. Each round times both sizes back to back,
    # so a burst of load on a shared machine cannot land on one size only.
    h1 = build_h1()
    edge = SignedGraph(2, [(0, 1, BLUE)])
    calls = {}
    for n in (10_000, 40_000):
        g = SignedGraph(n, [(i, i + 1, BLUE) for i in range(0, n, 2)])
        inst = Instance(g, full_lists(n, h1))
        on_edge = Instance(g, full_lists(n, edge))
        calls[n] = (
            lambda inst=inst: solve_h1(inst),
            lambda on_edge=on_edge: solve_ordered(on_edge, edge, Ordering((1,), (0,))),
        )
    best = {n: [float("inf")] * 2 for n in calls}
    for _ in range(5):
        for k in (0, 1):
            for n, fs in calls.items():
                best[n][k] = min(best[n][k], took(fs[k]))
    for small, large in zip(best[10_000], best[40_000]):
        assert large / small < 8


def test_a_large_path_instance_never_builds_its_masks(monkeypatch):
    # Bitmask rows hold one bit per vertex, so building them for an instance
    # costs time quadratic in n; the solvers read instances only through
    # edges and colours. Counting the builds, not timing them, keeps this
    # independent of machine load.
    n = 100_000
    built = []
    build = sgcore._masks
    monkeypatch.setattr(sgcore, "_masks", lambda size, colour_of: built.append(size) or build(size, colour_of))
    h = build_hl(5)
    nbrs = [list(h.neighbours(a)) for a in range(h.n)]
    rng = random.Random(13)
    img = [0]
    for _ in range(n - 1):
        img.append(rng.choice(nbrs[img[-1]]))
    flip = [rng.randrange(2) for _ in range(n)]
    lines = ["sg %d" % n]
    for v in range(n - 1):
        c = h.colour(img[v], img[v + 1])
        if c is BICOLOURED:
            c = rng.choice((BLUE, RED, BICOLOURED))
        elif flip[v] != flip[v + 1]:
            c = RED if c is BLUE else BLUE
        lines.append("e %d %d %s" % (v, v + 1, c.value))
    lines.extend("l %d %d %d" % (v, img[v], rng.randrange(h.n)) for v in range(n))
    inst = parse_instance("\n".join(lines), h.n)
    sol = solve(h, inst, "auto")
    assert sol is not None
    assert check_solution(inst, h, sol) == []
    assert built and n not in built
    assert "adj_mask" not in vars(inst.g) and "bic_mask" not in vars(inst.g)


def test_the_routes_walk_no_unsigned_lists_and_read_no_target_colours(monkeypatch):
    # Components come from the support lists the routes build anyway, and
    # the ordered finish reads image colours off the place rows and the
    # target's semi-balancing switching. Counting calls, not timing them,
    # keeps this independent of machine load.
    built = []
    build = solver._parity_lists

    def spy(n, edges):
        edges = list(edges)
        built.append((n, edges))
        return build(n, edges)

    monkeypatch.setattr(solver, "_parity_lists", spy)
    rng = random.Random(23)
    for h, route in ((disguise(rng, build_hl(7)), "ordered"), (right_segmented_path(), "ordered"),
                     (disguise(rng, build_h1()), "h1")):
        inst = planted_instance(rng, h, 60, 6, 2)
        assert {c for _, _, c in inst.g.edges} >= {BLUE, RED}
        unsigned = (inst.g.n, [(u, v, 0) for u, v, _ in inst.g.edges])
        reads = []
        h.colour = lambda u, v, read=h.colour: reads.append((u, v)) or read(u, v)
        for alg in ("auto", "oracle"):
            built.clear()
            sol = solve(h, inst, alg)
            assert sol is not None and check_solution(inst, h, sol) == []
            assert unsigned not in built
            if route == "ordered":
                assert reads == []


def test_the_routes_never_build_the_instances_colour_map():
    # The solvers read an instance only through its edges; check_solution
    # reads the target's colours, not the instance's.
    rng = random.Random(28)
    for h in (disguise(rng, build_hl(7)), right_segmented_path(), disguise(rng, build_h1())):
        for inst in (planted_instance(rng, h, 60, 6, 2), random_instance(rng, 8, h)):
            inst = parse_instance(serialize_instance(inst), h.n)
            for alg in ("auto", "oracle"):
                sol = solve(h, inst, alg)
                assert sol is None or check_solution(inst, h, sol) == []
            assert "_colour" not in vars(inst.g)


def right_segmented_path():
    edges = [(i, i + 1, BLUE) for i in range(7)]
    edges += [(i, j, BICOLOURED) for i, j in [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)]]
    return SignedGraph(8, edges)


def disguise(rng, g):
    return random_relabel(rng, apply_switching(g, random_switching(rng, g.n)))[0]


def test_the_side_routes_never_build_the_targets_masks():
    # Both side routes read the target only through the rank rows of its
    # ordering, so a freshly parsed target ends every solve without masks.
    rng = random.Random(8)
    for h in (disguise(rng, build_hl(7)), right_segmented_path(), disguise(rng, build_h1())):
        target = parse_graph(serialize_graph(h))
        for inst in (planted_instance(rng, target, 12, 6, 2), random_instance(rng, 8, target)):
            solve(target, inst)
        assert "adj_mask" not in vars(target) and "bic_mask" not in vars(target)


def test_the_side_routes_build_no_signed_adjacency_of_the_instance(monkeypatch):
    # The finishers read each edge's sign off the support lists, where a
    # red edge's rows table is the red one; only the H1 finish still walks
    # parity lists, over its boundary and region slots.
    sizes = []
    build = solver._parity_lists
    monkeypatch.setattr(solver, "_parity_lists", lambda n, edges: sizes.append(n) or build(n, edges))
    rng = random.Random(27)
    for h in (disguise(rng, build_hl(7)), disguise(rng, right_segmented_path()),
              disguise(rng, build_h1())):
        for n in (40, 90):
            inst = planted_instance(rng, h, n, n // 5, 2)
            sizes.clear()
            assert solve(h, inst) is not None
            assert n not in sizes


def _planted_then_perturbed(rng, h):
    """One to three planted components, then up to three edits, each one
    recolouring an edge, shrinking a list to one random value, or adding a
    random edge, so that some instances have no solution."""
    edges, lists = {}, []
    for _ in range(rng.randint(1, 3)):
        part = planted_instance(rng, h, rng.randint(1, 30), rng.randint(0, 8), rng.randint(0, 3))
        edges.update(((u + len(lists), v + len(lists)), c) for u, v, c in part.g.edges)
        lists += part.lists
    n = len(lists)
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0 and edges:
            edges[rng.choice(sorted(edges))] = rng.choice((BLUE, RED, BICOLOURED))
        elif kind == 1:
            lists[rng.randrange(n)] = {rng.randrange(h.n)}
        elif n > 1:
            u, v = sorted(rng.sample(range(n), 2))
            edges[u, v] = rng.choice((BLUE, RED, BICOLOURED))
    return Instance(SignedGraph(n, [(u, v, c) for (u, v), c in edges.items()]), lists)


def test_side_routes_match_the_second_adjacency_references():
    # tests/helpers.py keeps both finishers as they were with a signed
    # adjacency of (neighbour, red bit) lists and per-component dicts.
    rng = random.Random(2027)
    hs = [disguise(rng, build_hl(ell)) for ell in (3, 5, 7)] + [disguise(rng, build_h1())]
    while len(hs) < 10:
        g = random_segmented_path(rng, rng.randint(6, 16))
        if classify(g).complexity == POLYNOMIAL:
            hs.append(disguise(rng, g))
    answers = {}
    for k in range(1200):
        h = hs[k % len(hs)]
        verdict = classify(h)
        ref = ref_solve_via_h1 if verdict.reason == "MatchesH1" else (
            lambda h, inst, o: ref_solve_ordered(inst, h, o))
        inst = _planted_then_perturbed(rng, h)
        sol = solve(h, inst)
        assert sol == ref(h, inst, verdict.ordering)
        key = (verdict.reason, sol is None, len(ref_components(inst.g)) > 1)
        answers[key] = answers.get(key, 0) + 1
    reasons = {reason for reason, _, _ in answers}
    assert len(reasons) >= 2 and "MatchesH1" in reasons
    for reason in reasons:
        for no in (False, True):
            for several in (False, True):
                assert answers.get((reason, no, several), 0) >= 10, (reason, no, several, answers)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_solve_routes_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    h1 = disguise(rng, build_h1())
    hl = disguise(rng, build_hl(5))
    path = disguise(rng, right_segmented_path())
    hard = disguise(rng, build_reduction_target(5))
    for target, alg in (
        (hard, "oracle"),
        (h1, "h1"),
        (hl, "ordered"),
        (path, "ordered"),
        (h1, "auto"),
        (hl, "auto"),
        (path, "auto"),
    ):
        inst = random_instance(rng, rng.randint(1, 7), target, bipartite=rng.random() < 0.7)
        stats = {}
        sol = solve(target, inst, alg, stats)
        assert (sol is None) == (solve_oracle(inst, target) is None)
        assert stats["backtracks"] >= 0
        if sol is not None:
            assert check_solution(inst, target, sol) == []
        if alg == "oracle":
            assert sol == solve_oracle(inst, target)
        if alg == "auto":
            assert sol == solve(target, inst, "h1" if target is h1 else "ordered")


@pytest.mark.parametrize("route", ["oracle", "ordered", "h1", "auto"])
@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_planted_instances_past_brute_force_solve_on_every_route(route, seed):
    # The oracle gets trees, on which maintained arc consistency never
    # backtracks, so it stays polynomial; the other routes get extra edges.
    rng = random.Random(seed)
    if route == "oracle":
        h = rng.choice((build_h0(), build_h1(), build_reduction_target(5),
                        SignedGraph(5, [(0, 1, BLUE), (1, 2, RED), (0, 2, BICOLOURED)])))
        run = lambda inst: solve_oracle(inst, h)
    elif route == "ordered":
        h, o = polynomial_target(rng)
        run = lambda inst: solve_ordered(inst, h, o)
    elif route == "h1":
        h, run = build_h1(), solve_h1
    else:
        h = disguise(rng, rng.choice((build_h1(), build_hl(rng.choice((3, 5, 9))),
                                      right_segmented_path())))
        run = lambda inst: solve(h, inst, "auto")
    n = rng.randint(40, 200)
    inst = planted_instance(rng, h, n, 0 if route == "oracle" else n // 10, 2)
    sol = run(inst)
    assert sol is not None
    assert check_solution(inst, h, sol) == []


def test_side_routes_frozen_outputs():
    # A seeded sweep of 2,000 calls, hashed as the side routes first
    # answered it: solve_ordered on polynomial paths with n <= 9, Hl(3..9)
    # and disguised copies, sometimes with a shuffled ordering; solve_h1 on
    # random instances; solve "auto" on disguised H1 and on planted instances
    # against disguised polynomial targets.
    rng = random.Random(2018)
    paths = []
    while len(paths) < 12:
        g = random_path_target(rng, rng.randint(2, 9), p_chord=rng.choice((0.1, 0.3)))
        v = classify_path(g)
        if v.complexity == POLYNOMIAL:
            paths.append((g, v.ordering))
    plain = paths + [(build_hl(ell), ordering_for_cycle_target("Hl", ell)) for ell in (3, 5, 7, 9)]
    disguised = [disguise(rng, h) for h, _ in plain]
    ordered = plain + [(d, solver.classify(d).ordering) for d in disguised]
    calls = []
    for _ in range(900):
        h, o = rng.choice(ordered)
        if rng.random() < 0.1:
            o = Ordering(*(tuple(rng.sample(c, len(c))) for c in (o.black_order, o.white_order)))
        n = rng.randint(1, 10)
        inst = random_instance(rng, n, h, bipartite=rng.random() < 0.6, max_list=rng.randint(1, h.n))
        calls.append(lambda inst=inst, h=h, o=o: solve_ordered(inst, h, o))
    for _ in range(600):
        inst = random_instance(rng, rng.randint(1, 12), build_h1(), bipartite=rng.random() < 0.7,
                               max_list=rng.randint(1, 6))
        calls.append(lambda inst=inst: solve_h1(inst))
    for _ in range(300):
        h = disguise(rng, build_h1())
        inst = random_instance(rng, rng.randint(1, 12), h, bipartite=rng.random() < 0.7,
                               max_list=rng.randint(1, 6))
        calls.append(lambda inst=inst, h=h: solve(h, inst, "auto"))
    for _ in range(200):
        h = rng.choice(disguised + [disguise(rng, build_h1())])
        n = rng.randint(20, 80)
        inst = planted_instance(rng, h, n, n // 5, 2)
        calls.append(lambda inst=inst, h=h: solve(h, inst, "auto"))
    digest = hashlib.sha256()
    for call in calls:
        try:
            sol = call()
            out = None if sol is None else (sol.mapping, sorted(sol.switching.flipped))
        except ValueError as e:
            out = str(e)
        digest.update(repr(out).encode())
    assert len(calls) == 2000
    assert digest.hexdigest() == (
        "021b558aeaf5d003a7f69e44dd88e6e95f37a948eed02e3c7fa892b193da0af6"
    )


def test_a_list_value_outside_the_target_raises_after_an_empty_list():
    inst = Instance(blue_path(2), [[], [7]])
    with pytest.raises(ValueError, match="list value outside the target"):
        arc_consistency(inst, build_h1())
    for target, alg in (
        (build_h1(), "oracle"),
        (build_h1(), "h1"),
        (build_h1(), "auto"),
        (build_hl(3), "ordered"),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match="list value outside the target"):
                solve(target, inst, alg)


def test_every_route_rejects_a_list_value_outside_the_target():
    inst = Instance(blue_path(2), [[7], [1]])
    for target, alg in (
        (build_h1(), "oracle"),
        (build_h1(), "h1"),
        (build_h1(), "auto"),
        (build_hl(3), "ordered"),
    ):
        with pytest.raises(ValueError, match="list value outside the target"):
            solve(target, inst, alg)


def test_solve_rejects_targets_off_its_route():
    hard = build_reduction_target(5)
    inst = Instance(blue_path(2), full_lists(2, hard))
    with pytest.raises(ValueError, match=r"NP-complete \(NoTemplateMatch\); rerun with --alg oracle"):
        solve(hard, inst)
    with pytest.raises(ValueError, match="NP-complete; no ordering exists"):
        solve(hard, inst, "ordered")
    assert solve(hard, inst, "oracle") is not None
    hl = build_hl(3)
    inst = Instance(blue_path(2), full_lists(2, hl))
    with pytest.raises(ValueError, match="not equivalent to the 6-vertex unbalanced cycle"):
        solve(hl, inst, "h1")
    with pytest.raises(ValueError, match="unknown alg"):
        solve(hl, inst, "fastest")
    h1 = build_h1()
    with pytest.raises(ValueError, match="not semi-balanced"):
        solve(h1, Instance(blue_path(2), full_lists(2, h1)), "ordered")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_h1_route_reads_the_equivalence_off_the_verdict(seed):
    # The route must answer as solve_h1 does on the instance lifted through
    # the least equivalence onto H1, mapped back through it.
    rng = random.Random(seed)
    target = disguise(rng, build_h1())
    inst = random_instance(rng, rng.randint(1, 6), target, bipartite=rng.random() < 0.7)
    phi, s = switching_equivalent(target, build_h1())
    # The verdict's ordering puts at each place the vertex phi sends to
    # H1's vertex at that place, so the route runs over H1's places.
    o, h1 = classify(target).ordering, ordering_for_cycle_target(targets.H1)
    places = o.white_order + o.black_order
    assert tuple(phi[v] for v in places) == h1.white_order + h1.black_order
    lifted = solve_h1(Instance(inst.g, [[phi[a] for a in l] for l in inst.lists]))
    expected = None
    if lifted is not None:
        inv = sgcore._inverse(phi)
        mapping = tuple(inv[a] for a in lifted.mapping)
        flips = [v for v, a in enumerate(mapping) if (v in lifted.switching.flipped) ^ (a in s.flipped)]
        expected = solver.Solution(mapping, sgcore.Switching(flips))
    assert solve(target, inst, rng.choice(("auto", "h1"))) == expected


def test_solve_classifies_once_and_builds_no_target(monkeypatch):
    rng = random.Random(5)
    h1 = disguise(rng, build_h1())
    hl = disguise(rng, build_hl(5))
    cases = [(h1, alg, random_instance(rng, 6, h1)) for alg in ("auto", "h1")]
    cases += [(hl, alg, random_instance(rng, 6, hl)) for alg in ("auto", "ordered")]
    expected = [solve_oracle(inst, target) is None for target, _, inst in cases]
    classified = []
    real_classify = solver.classify

    def counted(g):
        classified.append(g)
        return real_classify(g)

    def forbidden(*args):
        raise AssertionError("called while solving")

    monkeypatch.setattr(solver, "classify", counted)
    monkeypatch.setattr(sgcore, "switching_equivalent", forbidden)
    for name in ("build_h0", "build_h1", "build_hl", "build_reduction_target"):
        monkeypatch.setattr(targets, name, forbidden)
    assert not hasattr(solver, "switching_equivalent")
    for (target, alg, inst), none in zip(cases, expected):
        classified.clear()
        sol = solve(target, inst, alg)
        assert classified == [target]
        assert (sol is None) == none


def test_solve_ordered_builds_the_rank_rows_once_per_call(monkeypatch):
    # Both verifier scans read one table; the wrapper stands in for the
    # table function in the ordering module and in the solver alike. solve
    # reads a template match's table off the template and builds none; on a
    # segmented path it builds one, as solve_ordered called directly does.
    rng = random.Random(6)
    cases = [disguise(rng, build_hl(ell)) for ell in (3, 9)]
    cases.append(SignedGraph(8, [(i, i + 1, BLUE) for i in range(7)] + [
        (i, j, BICOLOURED) for i, j in [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)]
    ]))
    built = []
    real = ordering._rank_rows

    def counted(g, o):
        built.append(g)
        return real(g, o)

    monkeypatch.setattr(ordering, "_rank_rows", counted)
    monkeypatch.setattr(solver, "_rank_rows", counted)
    for target in cases:
        matched = classify(target).reason.startswith("Matches")
        yes = Instance(blue_path(3), full_lists(3, target))
        for inst in (yes, random_instance(rng, 8, target)):
            for alg in ("auto", "ordered"):
                built.clear()
                sol = solve(target, inst, alg)
                assert built == ([] if matched else [target])
                assert sol is not None or inst is not yes
            built.clear()
            direct = solve_ordered(inst, target, classify(target).ordering)
            assert built == [target]
            assert direct == solve(target, inst, "ordered")


def test_check_solution_reports_all_violation_kinds():
    h = build_h0()
    inst = Instance(blue_path(2), [[0], [0]])
    from sephom.solver import Solution
    from sephom import Switching

    bad_list = Solution(mapping=(0, 1), switching=Switching())
    assert any("list" in p for p in check_solution(inst, h, bad_list))
    non_edge = Solution(mapping=(0, 0), switching=Switching())
    assert check_solution(inst, h, non_edge) != []

    # One case per problem kind, against H1: 0-1-2-3 blue, 0-4 blue,
    # 4-5 red, 5-3 blue, 0-3 bicoloured.
    h1 = build_h1()
    blue = Instance(blue_path(2), full_lists(2, h1))
    bic = Instance(SignedGraph(2, [(0, 1, BICOLOURED)]), full_lists(2, h1))

    def problems(inst, mapping, flipped=()):
        return check_solution(inst, h1, Solution(mapping, Switching(flipped)))

    assert problems(blue, (0,)) == ["mapping length 1, expected 2"]
    assert problems(blue, (0, 1), [2]) == [
        "switching names a vertex outside the instance"
    ]
    assert problems(blue, (0, 6)) == ["vertex 1 mapped outside the target"]
    listed = Instance(blue_path(2), [[0], [1]])
    assert problems(listed, (0, 2)) == ["vertex 1 mapped to 2, not in its list"]
    assert problems(blue, (1, 4)) == ["edge 0 1 maps to a non-edge"]
    assert problems(bic, (0, 1)) == ["bicoloured edge 0 1 maps to +"]
    assert problems(bic, (0, 3)) == []
    assert problems(blue, (4, 5)) == ["edge 0 1 has the wrong image sign"]
    assert problems(blue, (4, 5), [0]) == []


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150)
def test_check_solution_matches_the_reference_checker(seed):
    rng = random.Random(seed)
    h = rng.choice((build_h0(), build_h1()))
    inst = random_instance(rng, rng.randint(1, 6), h)
    from sephom.solver import Solution
    from sephom import Switching

    mapping = tuple(rng.randrange(h.n) for _ in range(inst.g.n))
    flipped = frozenset(v for v in range(inst.g.n) if rng.randrange(2))
    sol = Solution(mapping=mapping, switching=Switching(flipped))
    ours = check_solution(inst, h, sol)
    reference = solution_errors(inst, h, mapping, flipped)
    assert (ours == []) == (reference == [])


def test_solve_reads_the_verdicts_switching_and_runs_no_balance_walk(monkeypatch):
    calls = []
    walk = solver.is_semi_balanced
    monkeypatch.setattr(solver, "is_semi_balanced", lambda g: calls.append(g.n) or walk(g))
    rng = random.Random(30)
    targets_ = [disguise(rng, random_segmented_path(rng, n)) for n in (8, 16, 40)]
    targets_ += [disguise(rng, build_hl(ell)) for ell in (3, 5, 9)] + [disguise(rng, build_h0())]
    for h in targets_:
        for inst in (planted_instance(rng, h, 30, 6, 2), random_instance(rng, 8, h)):
            for alg in ("auto", "ordered"):
                sol = solve(h, inst, alg)
                # Either switching of the connected target gives the same
                # solution, as each walk's root has switch bit 0.
                assert sol == solve_ordered(inst, h, classify(h).ordering)
                assert calls == [h.n]
                calls.clear()


def test_solve_ordered_called_directly_still_checks_the_target():
    h = build_h1()
    inst = Instance(SignedGraph(1, []), [[0]])
    with pytest.raises(ValueError, match="target is not semi-balanced"):
        solve_ordered(inst, h, ordering_for_cycle_target(targets.H1))
    with pytest.raises(ValueError, match="target is not semi-balanced"):
        solve(h, inst, "ordered")
