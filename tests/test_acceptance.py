"""Acceptance sweep: seven criteria, one pass line each.

Each test prints a single "criterion N: PASS" line with the scale it ran at.
Every check is a hard assertion; criterion 4 also asserts that the ordered
solver never backtracks.
"""

import itertools
import random

from helpers import (
    brute_anti_balanced,
    brute_balanced,
    brute_gf2,
    brute_lhom_all,
    brute_semi_balanced,
    gadget_images_rigid,
    occurrences_switched_coherently,
    random_instance,
    random_relabel,
    random_signed_graph,
    random_switching,
    reduction_occurrences,
    solution_errors,
)
from sephom import (
    BICOLOURED,
    BLUE,
    RED,
    SignedGraph,
    apply_switching,
    build_h0,
    build_h1,
    build_hl,
    enum_targets,
    is_anti_balanced,
    is_balanced,
    is_semi_balanced,
    switching_equivalent,
    walk_sign,
)
from sephom.classify import NP_COMPLETE, POLYNOMIAL, classify_cycle, classify_path
from sephom.hardness import QuadCsp, build_reduction, csp_solve, quad_relation
from sephom.ordering import (
    Ordering,
    ordering_for_cycle_target,
    verify_min_ordering,
    verify_special,
)
from sephom.solver import (
    Gf2System,
    arc_consistency,
    gf2_solve,
    solve_h1,
    solve_oracle,
    solve_ordered,
)
from sephom.targets import build_reduction_target
from sephom.witness import (
    Chain,
    chain_of_4cycle_pair,
    chain_of_alternating_4cycle,
    verify_chain,
)


def test_criterion_1_path_dichotomy_round_trip():
    n_poly = n_npc = 0
    for g in enum_targets("path", 10):
        v = classify_path(g)
        if v.complexity == POLYNOMIAL:
            assert verify_min_ordering(g, v.ordering) is None
            assert verify_special(g, v.ordering) is None
            n_poly += 1
        else:
            assert v.complexity == NP_COMPLETE
            assert isinstance(v.witness, Chain)
            assert verify_chain(g, v.witness)
            n_npc += 1
    print(
        "criterion 1: PASS (path targets n <= 10: %d polynomial with verified"
        " orderings, %d NP-complete with verified chains)" % (n_poly, n_npc)
    )


def test_criterion_2_cycle_templates():
    rng = random.Random(2026_08_16)
    templates = [build_h0(), build_h1()] + [build_hl(l) for l in (3, 5, 7, 9, 11)]
    for h in templates:
        for _ in range(100):
            g = apply_switching(h, random_switching(rng, h.n))
            g, _phi = random_relabel(rng, g)
            v = classify_cycle(g)
            assert v.complexity == POLYNOMIAL
            assert v.reason.startswith("Matches")
            assert verify_min_ordering(g, v.ordering) is None
            assert verify_special(g, v.ordering) is None

    small = [t for t in templates if t.n <= 10]
    n_poly = n_npc = 0
    for g in enum_targets("cycle", 10):
        v = classify_cycle(g)
        equivalent = any(
            t.n == g.n and switching_equivalent(g, t) is not None for t in small
        )
        assert (v.complexity == POLYNOMIAL) == equivalent
        n_poly += equivalent
        n_npc += not equivalent
    assert n_poly == 5
    print(
        "criterion 2: PASS (7 templates x 100 random forms polynomial;"
        " cycle targets n <= 10: %d polynomial, %d NP-complete)" % (n_poly, n_npc)
    )


def test_criterion_3_h1_solver_matches_the_oracle():
    rng = random.Random(31_62)
    h = build_h1()
    n_yes = n_no = 0
    for _ in range(10_000):
        inst = random_instance(
            rng,
            rng.randint(1, 12),
            h,
            bipartite=rng.random() < 0.7,
            max_list=rng.choice((2, 3, 6)),
        )
        got = solve_h1(inst)
        expected = solve_oracle(inst, h)
        assert (got is None) == (expected is None)
        if got is None:
            n_no += 1
        else:
            n_yes += 1
            assert solution_errors(inst, h, got.mapping, got.switching.flipped) == []
    print(
        "criterion 3: PASS (10000 random instances <= 12 vertices:"
        " %d yes, %d no, full agreement)" % (n_yes, n_no)
    )


def test_criterion_4_ordered_solver_matches_the_oracle():
    rng = random.Random(47_11)
    stats = {"backtracks": 0}
    pairs = 0

    segmented = []
    for g in enum_targets("path", 10):
        v = classify_path(g)
        if v.complexity == POLYNOMIAL:
            segmented.append((g, v.ordering))

    jobs = [(g, o, 25) for g, o in segmented]
    jobs += [
        (build_hl(ell), ordering_for_cycle_target("Hl", ell), 400)
        for ell in (3, 5, 7)
    ]
    for h, o, rounds in jobs:
        for _ in range(rounds):
            inst = random_instance(
                rng, rng.randint(1, 7), h, bipartite=rng.random() < 0.5
            )
            got = solve_ordered(inst, h, o, stats)
            expected = solve_oracle(inst, h)
            assert (got is None) == (expected is None)
            if got is not None:
                assert (
                    solution_errors(inst, h, got.mapping, got.switching.flipped) == []
                )
            pairs += 1
    assert stats["backtracks"] == 0
    print(
        "criterion 4: PASS (%d segmented targets n <= 10 plus three cycle"
        " templates, %d instance pairs, backtracks=%d)"
        % (len(segmented), pairs, stats["backtracks"])
    )


def _rgs_strings(length, classes):
    s = [0] * length

    def rec(i, mx):
        if i == length:
            yield tuple(s)
            return
        for v in range(min(mx + 1, classes - 1) + 1):
            s[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    yield from rec(1, 0)


def _canonical_quads(quads):
    best = None
    for perm in itertools.permutations(quads):
        renaming = {}
        flat = []
        for q in perm:
            for x in q:
                flat.append(renaming.setdefault(x, len(renaming)))
        key = tuple(flat)
        if best is None or key < best:
            best = key
    return best


def test_criterion_5_reduction_agrees_with_direct_solving():
    # Renaming variables or reordering quadruples yields an isomorphic
    # reduction instance, so one representative per canonical class covers
    # every QuadCsp with <= 4 variables and <= 3 quadruples.  The relation
    # holds on all-equal tuples, so all-zeros satisfies every system and the
    # unsatisfiable branch can only be exercised vacuously.
    names = ("p", "q", "r", "s")
    targets = {ell: build_reduction_target(ell) for ell in (5, 7)}
    seen = set()
    classes = 0
    for nq in (1, 2, 3):
        for string in _rgs_strings(4 * nq, 4):
            quads = tuple(string[i:i + 4] for i in range(0, 4 * nq, 4))
            key = _canonical_quads(quads)
            if key in seen:
                continue
            seen.add(key)
            used = len(set(key))
            csp = QuadCsp(
                vars=names[:used],
                quads=tuple(
                    tuple(names[x] for x in key[i:i + 4])
                    for i in range(0, 4 * nq, 4)
                ),
            )
            assignment = csp_solve(csp)
            assert assignment is not None
            assert all(
                quad_relation(*(assignment[x] for x in q)) for q in csp.quads
            )
            for ell in (5, 7):
                inst = build_reduction(csp, ell)
                sol = solve_oracle(inst, targets[ell])
                assert sol is not None
                assert (
                    solution_errors(
                        inst, targets[ell], sol.mapping, sol.switching.flipped
                    )
                    == []
                )
                assert gadget_images_rigid(sol.mapping, nq, ell)
                occ = reduction_occurrences(csp, ell)
                assert occurrences_switched_coherently(occ, sol.switching.flipped)
            classes += 1
    assert classes == 120_056
    print(
        "criterion 5: PASS (%d canonical quadruple systems, both gadget"
        " lengths, decisions agree and invariants hold)" % classes
    )


def test_criterion_6_pinned_unit_values():
    alternating = SignedGraph(
        4, [(0, 1, BICOLOURED), (2, 3, BICOLOURED), (1, 2, BLUE), (0, 3, BLUE)]
    )
    c = chain_of_alternating_4cycle((0, 1, 2, 3))
    assert c == Chain(U=(0, 3, 2), D=(0, 1, 2))
    assert verify_chain(alternating, c)

    pair = SignedGraph(
        7,
        [
            (0, 1, BICOLOURED),
            (0, 4, BICOLOURED),
            (1, 2, BLUE),
            (2, 3, BLUE),
            (0, 3, BLUE),
            (4, 5, BLUE),
            (5, 6, BLUE),
            (0, 6, BLUE),
        ],
    )
    c2 = chain_of_4cycle_pair(pair, (0, 1, 2, 3, 4, 5, 6))
    assert c2 == Chain(U=(0, 3, 2, 1, 0), D=(0, 4, 5, 6, 0))
    assert verify_chain(pair, c2)

    g3 = build_hl(3)
    o = Ordering(black_order=(3, 1, 4), white_order=(0, 2, 5))
    assert verify_min_ordering(g3, o) is None
    assert verify_special(g3, o) is None

    assert quad_relation(1, 1, 1, 1)
    assert quad_relation(1, 0, 0, 0)
    assert quad_relation(0, 0, 1, 0)
    assert not quad_relation(1, 0, 1, 0)
    assert quad_relation(1, 1, 0, 1)
    assert quad_relation(0, 1, 1, 1)
    assert not quad_relation(0, 1, 0, 1)
    print("criterion 6: PASS (pinned chains, 6-cycle ordering, relation table)")


def test_criterion_7_core_laws():
    rng = random.Random(6174)

    for _ in range(400):
        g = random_signed_graph(rng, rng.randint(0, 8))
        t = random_switching(rng, g.n)
        assert apply_switching(apply_switching(g, t), t) == g

    for _ in range(300):
        n = rng.randint(3, 8)
        colours = [rng.choice((BLUE, RED)) for _ in range(n)]
        g = SignedGraph(n, [(i, (i + 1) % n, colours[i]) for i in range(n)])
        walk = tuple(range(n)) + (0,)
        switched = apply_switching(g, random_switching(rng, n))
        assert walk_sign(g, walk) == walk_sign(switched, walk)

    for _ in range(300):
        g = random_signed_graph(rng, rng.randint(0, 8))
        for check, brute in (
            (is_balanced, brute_balanced),
            (is_anti_balanced, brute_anti_balanced),
            (is_semi_balanced, brute_semi_balanced),
        ):
            assert (check(g) is not None) == (brute(g) is not None)

    h = build_hl(3)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 4), h, max_list=4)
        pruned = arc_consistency(inst, h)
        for mapping, _flipped in brute_lhom_all(inst, h):
            assert pruned is not None
            assert all(mapping[u] in pruned[u] for u in range(inst.g.n))

    for _ in range(60):
        k = rng.randint(1, 16)
        variables = tuple("v%d" % i for i in range(k))
        equations = tuple(
            (
                tuple(v for v in variables if rng.random() < 0.4),
                rng.randrange(2),
            )
            for _ in range(rng.randint(0, 8))
        )
        got = gf2_solve(Gf2System(variables, equations))
        expected = brute_gf2(variables, equations)
        assert (got is None) == (expected is None)
        if got is not None:
            assert all(
                sum(got[v] for v in lhs) % 2 == rhs for lhs, rhs in equations
            )
    print(
        "criterion 7: PASS (involution, cycle signs, balance checks vs"
        " exhaustive, arc-consistency soundness, GF(2) vs exhaustive)"
    )
