"""Chains, invertible pairs, 4-cycle patterns, and their verifiers."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_chain_exists,
    brute_chain_min_steps,
    brute_invertible_pair,
    brute_special_min_ordering,
    find_4cycle_pair,
    find_alternating_4cycle,
    random_bipartite_signed_graph,
    random_cycle_target,
    random_path_target,
    random_relabel,
    random_switching,
    ref_find_chain,
    ref_find_invertible_pair,
    signed_graph_st,
)
from sephom import (
    BICOLOURED,
    BLUE,
    SignedGraph,
    apply_switching,
    build_hl,
    build_reduction_target,
    enum_targets,
    is_semi_balanced,
)
from sephom.classify import classify
from sephom.separable import cycle_form, path_form
from sephom.witness import (
    Chain,
    InvertiblePair,
    chain_of_4cycle_pair,
    chain_of_alternating_4cycle,
    find_chain,
    find_invertible_pair,
    verify_chain,
    verify_invertible_pair,
    witness_dict,
)

ALT = SignedGraph(
    4, [(0, 1, BICOLOURED), (2, 3, BICOLOURED), (1, 2, BLUE), (0, 3, BLUE)]
)

PAIR_EDGES = [
    (0, 1, BICOLOURED),
    (0, 4, BICOLOURED),
    (1, 2, BLUE),
    (2, 3, BLUE),
    (0, 3, BLUE),
    (4, 5, BLUE),
    (5, 6, BLUE),
    (0, 6, BLUE),
]


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges += [(i, j, BICOLOURED) for i, j in bic]
    return SignedGraph(n, edges)


def blue_cycle(n):
    return SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)])


def test_verify_chain_accepts_the_alternating_cycle_chain():
    assert verify_chain(ALT, Chain(U=(0, 3, 2), D=(0, 1, 2)))


def test_verify_chain_rejects_malformed_walks():
    assert not verify_chain(ALT, Chain(U=(0, 1, 2), D=(0, 3, 2)))
    assert not verify_chain(ALT, Chain(U=(0, 3), D=(0, 1)))
    assert not verify_chain(ALT, Chain(U=(0, 3, 2), D=(1, 0, 2)))
    assert not verify_chain(ALT, Chain(U=(0, 3, 2), D=(0, 1, 3)))
    assert not verify_chain(ALT, Chain(U=(0, 3, 9), D=(0, 1, 9)))
    # The last step of U is blue, not bicoloured.
    assert not verify_chain(ALT, Chain(U=(0, 3, 0), D=(0, 1, 0)))
    # The interior step 1 -> 0, 3 -> 2 has d_1 u_2 = 3 0 an edge, and 1 0 is
    # not bicoloured.
    p6 = blue_path(6, [(0, 3), (2, 5)])
    assert not verify_chain(p6, Chain(U=(0, 1, 0, 3), D=(0, 3, 2, 3)))


def test_find_chain_frozen_examples():
    assert find_chain(ALT) == Chain(U=(0, 3, 2), D=(0, 1, 2))
    p6 = blue_path(6, [(0, 3), (2, 5)])
    assert find_chain(p6) == Chain(U=(2, 1, 0, 3), D=(2, 5, 2, 3))
    assert verify_chain(p6, find_chain(p6))
    assert find_chain(blue_path(6)) is None


def test_found_chains_always_verify_on_templates():
    for kind, n in (("path", 7), ("cycle", 8)):
        for g in enum_targets(kind, n):
            c = find_chain(g)
            if c is not None:
                assert verify_chain(g, c)


def test_find_chain_agrees_with_definition_closure():
    for kind, n in (("path", 7), ("cycle", 8)):
        for g in enum_targets(kind, n):
            found = find_chain(g)
            assert (found is not None) == brute_chain_exists(g)
            if found is not None:
                assert len(found.U) - 1 == brute_chain_min_steps(g)


@given(signed_graph_st(max_n=6))
@settings(max_examples=150)
def test_find_chain_agrees_with_definition_closure_random(g):
    found = find_chain(g)
    assert (found is not None) == brute_chain_exists(g)
    if found is not None:
        assert verify_chain(g, found)
        assert len(found.U) - 1 == brute_chain_min_steps(g)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_find_chain_agrees_on_path_targets(seed):
    rng = random.Random(seed)
    g = random_path_target(rng, rng.randint(2, 9), p_chord=0.3)
    assert (find_chain(g) is not None) == brute_chain_exists(g)


def test_find_alternating_4cycle():
    assert find_alternating_4cycle(ALT) == (0, 1, 2, 3)
    assert find_alternating_4cycle(blue_cycle(4)) is None
    from sephom import build_hl

    assert find_alternating_4cycle(build_hl(5)) is None


def test_chain_of_alternating_4cycle():
    c = chain_of_alternating_4cycle((0, 1, 2, 3))
    assert c == Chain(U=(0, 3, 2), D=(0, 1, 2))
    assert verify_chain(ALT, c)


def test_find_4cycle_pair_cross_conditions():
    pg = SignedGraph(7, PAIR_EDGES)
    assert find_4cycle_pair(pg) == (0, 1, 2, 3, 4, 5, 6)
    both_bic = SignedGraph(
        7, PAIR_EDGES + [(2, 4, BICOLOURED), (1, 5, BICOLOURED)]
    )
    assert find_4cycle_pair(both_bic) == (0, 1, 2, 3, 4, 5, 6)
    one_cross = SignedGraph(7, PAIR_EDGES + [(2, 4, BLUE)])
    assert find_4cycle_pair(one_cross) is None


def test_chain_of_4cycle_pair():
    pg = SignedGraph(7, PAIR_EDGES)
    c = chain_of_4cycle_pair(pg, (0, 1, 2, 3, 4, 5, 6))
    assert c == Chain(U=(0, 3, 2, 1, 0), D=(0, 4, 5, 6, 0))
    assert verify_chain(pg, c)
    both_bic = SignedGraph(
        7, PAIR_EDGES + [(2, 4, BICOLOURED), (1, 5, BICOLOURED)]
    )
    c2 = chain_of_4cycle_pair(both_bic, (0, 1, 2, 3, 4, 5, 6))
    assert c2 == Chain(U=(2, 1, 5), D=(2, 4, 5))
    assert verify_chain(both_bic, c2)


def test_invertible_pair_absent_on_small_graphs():
    assert find_invertible_pair(SignedGraph(2, [(0, 1, BLUE)])) is None
    assert find_invertible_pair(blue_path(4)) is None
    assert find_invertible_pair(blue_cycle(4)) is None
    tri = SignedGraph(3, [(0, 1, BLUE), (1, 2, BLUE), (0, 2, BLUE)])
    assert find_invertible_pair(tri) is None


def test_invertible_pair_on_even_cycles():
    for n in (6, 8):
        ip = find_invertible_pair(blue_cycle(n))
        assert (ip.a, ip.b) == (0, 2)
        assert verify_invertible_pair(blue_cycle(n), ip)


def test_invertible_pair_on_spiders():
    f1 = SignedGraph(
        10,
        [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE),
         (0, 4, BLUE), (4, 5, BLUE), (5, 6, BLUE),
         (0, 7, BLUE), (7, 8, BLUE), (8, 9, BLUE)],
    )
    ip = find_invertible_pair(f1)
    assert (ip.a, ip.b) == (0, 2)
    assert len(ip.U) == 19
    assert verify_invertible_pair(f1, ip)

    tips = SignedGraph(
        10,
        [(2, 3, BLUE), (3, 4, BLUE), (4, 0, BLUE),
         (2, 5, BLUE), (5, 6, BLUE), (6, 1, BLUE),
         (2, 7, BLUE), (7, 8, BLUE), (8, 9, BLUE)],
    )
    ip2 = find_invertible_pair(tips)
    assert (ip2.a, ip2.b) == (0, 1)
    assert len(ip2.U) == 25
    assert verify_invertible_pair(tips, ip2)


def test_verify_invertible_pair_rejects_tampering():
    g = blue_cycle(6)
    ip = find_invertible_pair(g)
    assert not verify_invertible_pair(g, dataclasses.replace(ip, U=ip.D, D=ip.U))
    assert not verify_invertible_pair(g, dataclasses.replace(ip, U=ip.U[:-1]))
    assert not verify_invertible_pair(g, dataclasses.replace(ip, b=ip.b + 1))
    # No middle swap; a non-edge step; the edge d_1 u_2 = 1 2.
    for U, D in (((0, 1, 0), (2, 1, 2)), ((0, 2, 0), (2, 0, 2)),
                 ((0, 1, 2, 1, 0), (2, 1, 0, 1, 2))):
        assert not verify_invertible_pair(g, InvertiblePair(a=0, b=2, U=U, D=D))


@given(signed_graph_st(max_n=6))
@settings(max_examples=100)
def test_found_invertible_pairs_verify(g):
    ip = find_invertible_pair(g)
    assert (ip and (ip.a, ip.b)) == brute_invertible_pair(g)
    if ip is not None:
        assert verify_invertible_pair(g, ip)
        assert ip.a < ip.b


def test_find_invertible_pair_is_the_least_pair_by_definition():
    for kind in ("path", "cycle"):
        for g in enum_targets(kind, 8):
            ip = find_invertible_pair(g)
            assert (ip and (ip.a, ip.b)) == brute_invertible_pair(g)


def test_verify_invertible_pair_rejects_pairs_across_the_classes():
    # Across the classes every d_i u_{i+1} joins one class to itself, so
    # the non-edge rule holds on any bipartite graph and checks nothing.
    bogus = InvertiblePair(a=0, b=1, U=(0, 1, 0), D=(1, 0, 1))
    assert not verify_invertible_pair(blue_path(3), bogus)
    # A graph with an odd cycle has no classes at all.
    odd = SignedGraph(5, [(0, v, BLUE) for v in (1, 2, 3, 4)] + [(2, 3, BLUE)])
    assert not verify_invertible_pair(odd, bogus)


def _closed_walks(g, a, t):
    walks = [(a,)]
    for _ in range(t):
        walks = [w + (v,) for w in walks for v in g.neighbours(w[-1])]
    return [w for w in walks if w[-1] == a]


def test_verify_invertible_pair_rejects_every_walk_pair_on_blue_paths():
    # Blue paths have no invertible pair, so every closed walk pair of 2 to
    # 6 steps is a bogus certificate. 2,834 of them swap in the middle and
    # keep the non-edge rule on the interior steps.
    swapped = 0
    for n in range(3, 7):
        g = blue_path(n)
        assert find_invertible_pair(g) is None and brute_invertible_pair(g) is None
        for t in range(2, 7):
            walks = {a: _closed_walks(g, a, t) for a in range(n)}
            for a in range(n):
                for b in range(n):
                    for U in walks[a]:
                        for D in walks[b]:
                            swapped += any(U[k] == b and D[k] == a for k in range(1, t)) and all(
                                not g.adjacent(D[i], U[i + 1]) for i in range(1, t - 1))
                            assert not verify_invertible_pair(g, InvertiblePair(a, b, U, D))
    assert swapped == 2834


@st.composite
def _graph_st(draw):
    """A signed graph on up to 12 vertices, half the time with every edge
    across a random 2-colouring."""
    g = draw(signed_graph_st(max_n=12))
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        g = SignedGraph(g.n, [(u, v, c) for u, v, c in g.edges if side[u] != side[v]])
    return g


@given(_graph_st())
@settings(max_examples=300, deadline=None)
def test_finders_match_the_tuple_state_search(g):
    assert find_chain(g) == ref_find_chain(g)
    assert find_invertible_pair(g) == ref_find_invertible_pair(g)


def test_finders_match_the_tuple_state_search_on_every_small_target():
    for kind in ("path", "cycle"):
        for g in enum_targets(kind, 10):
            assert find_chain(g) == ref_find_chain(g)
            pair = find_invertible_pair(g)
            assert pair == ref_find_invertible_pair(g)
            assert pair is None or verify_invertible_pair(g, pair)


def test_finders_match_the_tuple_state_search_on_64_vertex_targets():
    # Sparse chords leave few short chains, so the search explores many
    # states before it reaches a goal.
    rng = random.Random(64)
    lengths = []
    for k in range(80):
        density = (0.002, 0.005, 0.01, 0.02)[k % 4]
        g = (random_path_target if k % 2 else random_cycle_target)(rng, 64, density)
        if classify(g).reason not in ("NotSegmented", "NoTemplateMatch"):
            continue
        chain = find_chain(g)
        assert chain == ref_find_chain(g)
        if chain is None:
            pair = find_invertible_pair(g)
            assert pair == ref_find_invertible_pair(g)
            assert pair is None or verify_invertible_pair(g, pair)
        else:
            lengths.append(len(chain.U) - 1)
    assert len(lengths) >= 60 and max(lengths) >= 5


def test_finders_match_the_tuple_state_search_on_targets_without_a_pair():
    # With no pair to stop at, the finder tries every candidate pair. The
    # reduction targets are NP-complete with no witness at all, so classify
    # does call the pair finder on them; Hl(ell) is polynomial.
    rng = random.Random(25)
    graphs = [build_hl(ell) for ell in (3, 9, 21)]
    for ell in range(5, 32, 2):
        g, _ = random_relabel(rng, build_reduction_target(ell))
        g = apply_switching(g, random_switching(rng, g.n))
        assert classify(g).reason == "NoTemplateMatch"
        graphs.append(g)
    for g in graphs:
        assert find_chain(g) is None
        assert find_invertible_pair(g) is None
        assert ref_find_invertible_pair(g) is None


def test_witness_dict_forms():
    assert witness_dict(Chain(U=(0, 3, 2), D=(0, 1, 2))) == {
        "kind": "chain",
        "U": [0, 3, 2],
        "D": [0, 1, 2],
    }
    d = witness_dict(InvertiblePair(a=0, b=2, U=(0, 1, 2, 1, 0), D=(2, 1, 0, 1, 2)))
    assert d["kind"] == "invertible_pair"
    assert (d["a"], d["b"]) == (0, 2)
    with pytest.raises(ValueError, match="not a witness"):
        witness_dict(None)


def test_four_cycle_patterns_never_occur_without_a_chain():
    # classify falls back from find_chain to find_invertible_pair only; this
    # is why the two 4-cycle finders need no place in that fallback.
    seen = 0
    for g in enum_targets("path", 9):
        if find_alternating_4cycle(g) is None and find_4cycle_pair(g) is None:
            continue
        seen += 1
        chain = find_chain(g)
        assert chain is not None and verify_chain(g, chain)
    assert seen > 0


def test_finders_decide_orderings_beyond_separable_targets():
    # On random semi-balanced bipartite graphs with 4 <= n <= 8, most of
    # them neither paths nor cycles, the finders return a verified chain or
    # invertible pair exactly when brute force finds no special min ordering.
    rng = random.Random(2020)
    seen = {True: 0, False: 0}
    separable = 0
    for _ in range(2000):
        g = random_bipartite_signed_graph(
            rng, rng.randint(4, 8), p_edge=rng.uniform(0.3, 0.9), p_bic=rng.uniform(0.1, 0.6)
        )
        if is_semi_balanced(g) is None:
            continue
        chain = find_chain(g)
        pair = find_invertible_pair(g) if chain is None else None
        assert chain is None or verify_chain(g, chain)
        assert pair is None or verify_invertible_pair(g, pair)
        blocked = chain is not None or pair is not None
        assert blocked == (brute_special_min_ordering(g) is None)
        seen[blocked] += 1
        separable += path_form(g) is not None or cycle_form(g) is not None
    assert min(seen.values()) > 200
    assert separable < sum(seen.values()) // 10
