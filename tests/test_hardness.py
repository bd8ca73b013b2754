"""The quadruple relation, its gadget, and the compiled reduction."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from helpers import (
    brute_lhom,
    gadget_images_rigid,
    occurrences_switched_coherently,
    reduction_occurrences,
    ref_build_reduction,
    solution_errors,
)
from sephom import BLUE, RED, SignedGraph, build_hl, walk_sign
from sephom.hardness import (
    QuadCsp,
    build_gadget,
    build_reduction,
    csp_solve,
    quad_relation,
)
from sephom.solver import Instance, check_solution, solve_oracle
from sephom.targets import build_reduction_target

TRUE_QUADS = [
    (1, 1, 1, 1),
    (1, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (0, 1, 1, 1),
]
FALSE_QUADS = [
    (1, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 1, 1, 0),
    (0, 1, 0, 1),
]


def test_quad_relation_pinned_values():
    for q in TRUE_QUADS:
        assert quad_relation(*q)
    for q in FALSE_QUADS:
        assert not quad_relation(*q)


def test_quad_relation_full_table():
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        assert quad_relation(a, b, c, d) == ((a == b == c == d) or (a != c))


def test_quad_relation_is_zero_and_one_valid():
    assert quad_relation(0, 0, 0, 0)
    assert quad_relation(1, 1, 1, 1)


def test_quadcsp_validation():
    with pytest.raises(ValueError, match="duplicate variable"):
        QuadCsp(("p", "p"), ())
    with pytest.raises(ValueError, match="length"):
        QuadCsp(("p",), (("p", "p", "p"),))
    with pytest.raises(ValueError, match="undeclared"):
        QuadCsp(("p",), (("p", "p", "p", "q"),))


def test_csp_solve_examples():
    csp = QuadCsp(("p", "q"), (("p", "q", "p", "q"),))
    assert csp_solve(csp) == {"p": 0, "q": 0}
    csp = QuadCsp(("p", "q"), (("p", "p", "q", "p"), ("q", "q", "p", "q")))
    assert csp_solve(csp) == {"p": 0, "q": 0}


def test_every_quadcsp_is_satisfiable():
    # The relation holds on all-equal tuples, so all-zeros always works and
    # the unsatisfiable branch of the reduction can only be exercised
    # vacuously.
    rng = random.Random(7)
    names = ("p", "q", "r", "s")
    for _ in range(200):
        quads = tuple(
            tuple(rng.choice(names) for _ in range(4))
            for _ in range(rng.randint(1, 3))
        )
        sol = csp_solve(QuadCsp(names, quads))
        assert sol is not None
        assert all(
            quad_relation(sol[a], sol[b], sol[c], sol[d]) for a, b, c, d in quads
        )


def test_build_gadget_validates_the_parameter():
    csp = QuadCsp(("p",), (("p", "p", "p", "p"),))
    build_gadget(5)  # a cached int 5 must not answer for 5.0
    not_ints = (5.0, "5", None, True)
    for bad in (3, 4, 6, -1) + not_ints:
        for build in (build_gadget, build_reduction_target, lambda ell: build_reduction(csp, ell)):
            with pytest.raises(ValueError, match="odd count >= 5"):
                build(bad)
    for bad in not_ints:
        with pytest.raises(ValueError, match="odd count >= 3"):
            build_hl(bad)


def test_a_gadget_too_large_to_hold_fails_at_once():
    # In a child under a 512 MB address-space limit: a build that grows its
    # lists instead fails there fast, with a bare MemoryError.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from sephom.hardness import build_gadget\n"
        "try:\n"
        "    build_gadget(2 ** 64 + 1)\n"
        "except MemoryError as err:\n"
        "    print(err)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "vertex count %d too large\n" % (2 ** 64 + 4))


@pytest.mark.parametrize("name", ["build_hl", "build_reduction_target"])
def test_a_template_target_too_large_to_hold_fails_at_once(name):
    # As for the gadget: under the same limit, a builder that grows its edge
    # list first ends in a bare MemoryError after seconds.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from sephom.targets import %s as build\n"
        "try:\n"
        "    build(2 ** 64 + 1)\n"
        "except MemoryError as err:\n"
        "    print(err)\n"
    ) % name
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "vertex count %d too large\n" % (2 ** 64 + 4))


def test_gadget_signs_are_frozen():
    g5 = build_gadget(5)
    spine = [g5.graph.colour(i, i + 1) for i in range(5)]
    assert spine == [RED, BLUE, RED, RED, BLUE]
    assert g5.graph.colour(3, 6) is BLUE
    assert g5.graph.colour(2, 7) is BLUE

    g7 = build_gadget(7)
    spine = [g7.graph.colour(i, i + 1) for i in range(7)]
    assert spine == [BLUE, BLUE, BLUE, RED, BLUE, BLUE, BLUE]
    assert g7.graph.colour(3, 8) is BLUE
    assert g7.graph.colour(4, 9) is BLUE


def test_gadget_lists():
    g = build_gadget(5)
    assert g.lists[0] == frozenset({0})
    assert g.lists[5] == frozenset({5})
    assert g.lists[6] == frozenset({0})
    assert g.lists[7] == frozenset({5})
    assert g.lists[1] == frozenset({1, 6})
    assert g.lists[2] == frozenset({2, 7})
    assert g.lists[3] == frozenset({3, 6})
    assert g.lists[4] == frozenset({4, 7})
    assert (g.a, g.b, g.c, g.d) == (0, 6, 5, 7)


def gadget_walk_checks(ell):
    b_at, d_at = 3, ell - 3
    step = 1 if d_at >= b_at else -1
    between = list(range(b_at, d_at + step, step))
    return [
        (list(range(0, b_at + 1)) + [ell + 1], "+"),
        (list(range(ell, d_at - 1, -1)) + [ell + 2], "+"),
        (list(range(0, ell + 1)), "-"),
        (list(range(0, d_at + 1)) + [ell + 2], "-"),
        ([ell + 1] + list(range(b_at, ell + 1)), "-"),
        ([ell + 1] + between + [ell + 2], "-"),
    ]


def test_gadget_satisfies_the_six_sign_constraints():
    for ell in (5, 7, 9):
        g = build_gadget(ell)
        for walk, want in gadget_walk_checks(ell):
            assert walk_sign(g.graph, walk) == want


def test_printed_sign_assignment_also_satisfies_the_constraints():
    colours = [RED, BLUE, RED, BLUE, RED]
    edges = [(i, i + 1, colours[i]) for i in range(5)]
    edges.append((3, 6, BLUE))
    edges.append((2, 7, BLUE))
    graph = SignedGraph(8, edges)
    for walk, want in gadget_walk_checks(5):
        assert walk_sign(graph, walk) == want


def test_reduction_layout():
    csp = QuadCsp(("p", "q", "r", "s"), (("p", "q", "r", "s"),))
    inst = build_reduction(csp, 5)
    assert inst.g.n == 8

    csp = QuadCsp(("p", "q"), (("p", "q", "p", "q"),))
    inst = build_reduction(csp, 5)
    assert inst.g.n == 16
    assert inst.lists[8:12] == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
    )

    two_left = QuadCsp(("p", "q", "r"), (("p", "p", "q", "r"),))
    inst = build_reduction(two_left, 5)
    assert inst.g.n == 9
    assert inst.lists[8] == frozenset({1})

    two_right = QuadCsp(("p", "q", "r"), (("p", "q", "r", "r"),))
    inst = build_reduction(two_right, 5)
    assert inst.g.n == 9
    assert inst.lists[8] == frozenset({4})


def workload_shaped_csps(rng, count):
    """Random systems of the reduction workload's two shapes: eight in nine
    with 2..4 variables and 1..3 quadruples, the rest with 5..8 variables
    and 4..12 quadruples. Only the variables some quadruple uses are declared."""
    for k in range(count):
        small = k % 9
        names = ["x%d" % i for i in range(rng.randint(2, 4) if small else rng.randint(5, 8))]
        quads = [tuple(rng.choice(names) for _ in range(4))
                 for _ in range(rng.randint(1, 3) if small else rng.randint(4, 12))]
        yield QuadCsp([x for x in names if any(x in q for q in quads)], quads)


def test_build_reduction_matches_the_checked_reference():
    edge_cases = [
        QuadCsp((), ()),
        QuadCsp(("p", "q", "unused"), (("p", "q", "p", "q"),)),
        QuadCsp(("a", "b"), (("a", "a", "b", "b"),)),
    ]
    csps = edge_cases + list(workload_shaped_csps(random.Random(26), 180))
    for csp in csps:
        for ell in (5, 7, 9):
            inst = build_reduction(csp, ell)
            ref = ref_build_reduction(csp, ell)
            assert inst.g == ref.g
            assert inst.lists == ref.lists
            shared = {}
            assert all(shared.setdefault(values, values) is values for values in inst.lists)


def test_build_reduction_leaves_no_colour_map():
    for csp in workload_shaped_csps(random.Random(28), 20):
        for ell in (5, 7):
            assert "_colour" not in vars(build_reduction(csp, ell).g)


def test_reduction_instances_solve_like_the_csp():
    rng = random.Random(11)
    names = ("p", "q", "r", "s")
    for _ in range(30):
        quads = tuple(
            tuple(rng.choice(names) for _ in range(4))
            for _ in range(rng.randint(1, 3))
        )
        csp = QuadCsp(names, quads)
        for ell in (5, 7):
            inst = build_reduction(csp, ell)
            h = build_reduction_target(ell)
            sol = solve_oracle(inst, h)
            assert (sol is not None) == (csp_solve(csp) is not None)
            assert sol is not None
            assert check_solution(inst, h, sol) == []
            assert gadget_images_rigid(sol.mapping, len(csp.quads), ell)
            occ = reduction_occurrences(csp, ell)
            assert occurrences_switched_coherently(occ, sol.switching.flipped)


def test_build_reduction_builds_each_gadget_once():
    build_gadget.cache_clear()
    rng = random.Random(5)
    names = ("p", "q", "r", "s")
    for ell in (5, 7, 5, 7):
        for _ in range(3):
            quads = [tuple(rng.choice(names) for _ in range(4)) for _ in range(2)]
            build_reduction(QuadCsp(names, quads), ell)
    assert build_gadget.cache_info().misses == 2


def single_quad_reductions(max_n):
    """Every single-quadruple reduction instance with at most max_n vertices,
    one per renaming class of the quadruple, with its target."""
    for ell in (5, 7):
        h = build_reduction_target(ell)
        seen = set()
        for quad in itertools.product("pqrs", repeat=4):
            names = {}
            for x in quad:
                names.setdefault(x, "pqrs"[len(names)])
            q = tuple(names[x] for x in quad)
            if q in seen:
                continue
            seen.add(q)
            inst = build_reduction(QuadCsp(sorted(set(q)), [q]), ell)
            if inst.g.n <= max_n:
                yield inst, h


def perturbations(inst):
    """inst with one value removed from one list of two or more values, and
    with the sign of one edge flipped."""
    for v, values in enumerate(inst.lists):
        if len(values) > 1:
            for a in sorted(values):
                lists = list(inst.lists)
                lists[v] = values - {a}
                yield Instance(inst.g, lists)
    for i, (u, w, c) in enumerate(inst.g.edges):
        edges = list(inst.g.edges)
        edges[i] = (u, w, RED if c is BLUE else BLUE)
        yield Instance(SignedGraph(inst.g.n, edges), inst.lists)


def test_oracle_decides_perturbed_reductions_like_exhaustive_search():
    # Every flip here leaves a "yes" (on a tree it switches back), so the four
    # "no" answers all come from list removals on the cycles that link paths
    # close. A "yes" is checked by both checkers: brute_lhom accepts exactly
    # the maps and switchings that solution_errors passes, so it would say
    # "yes" as well.
    decided = {True: 0, False: 0}
    for inst, h in single_quad_reductions(12):
        for p in perturbations(inst):
            sol = solve_oracle(p, h)
            if sol is None:
                assert brute_lhom(p, h) is None
            else:
                assert check_solution(p, h, sol) == []
                assert solution_errors(p, h, sol.mapping, sol.switching.flipped) == []
            decided[sol is not None] += 1
    assert decided == {True: 236, False: 4}
