"""Signed graphs: construction, switching, balance notions, equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_anti_balanced,
    brute_balanced,
    brute_semi_balanced,
    form_edge_case_st,
    form_sweep,
    random_bipartite_signed_graph,
    random_relabel,
    random_signed_graph,
    random_switching,
    ref_bipartition,
    ref_components,
    ref_mask_rows,
    ref_matching_switching,
    ref_uniform_switching,
    signed_graph_st,
)
from sephom import (
    BICOLOURED,
    BLUE,
    RED,
    SignedGraph,
    Switching,
    apply_switching,
    bipartition,
    build_h0,
    build_h1,
    build_hl,
    build_reduction_target,
    is_anti_balanced,
    is_balanced,
    is_semi_balanced,
    relabel,
    switching_equivalent,
    walk_sign,
)
from sephom import sgcore
from sephom.files import parse_graph, serialize_graph
from sephom.sgcore import _parity_lists, _parity_walk


def blue_cycle(n):
    return SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)])


def test_construction_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        SignedGraph(-1, [])


def test_construction_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        SignedGraph(2, [(1, 1, BLUE)])


def test_construction_rejects_parallel_records():
    with pytest.raises(ValueError, match="parallel"):
        SignedGraph(2, [(0, 1, BLUE), (1, 0, RED)])


def test_construction_rejects_unknown_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        SignedGraph(2, [(0, 2, BLUE)])


def test_construction_rejects_bad_colour():
    with pytest.raises(ValueError, match="colour"):
        SignedGraph(2, [(0, 1, "x")])


def test_construction_rejects_ids_and_counts_that_are_not_ints():
    # bool is a subclass of int, and a float that equals an int passes the
    # range checks, so each is rejected by type before any key is made.
    for bad in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            SignedGraph(bad, [])
    for bad in (1.0, True, False, "1", None):
        for edge in ((0, bad, BLUE), (bad, 2, RED)):
            with pytest.raises(ValueError, match="vertex ids must be ints"):
                SignedGraph(3, [edge])


@given(signed_graph_st())
@settings(max_examples=150)
def test_the_colour_map_is_built_from_the_edges_on_first_read(g):
    edges = {(u, v): c for u, v, c in g.edges}
    graphs = (g, parse_graph(serialize_graph(g)), SignedGraph(g.n, g.edges[::-1]))
    for graph in graphs:
        assert "_colour" not in vars(graph)
    for graph in graphs:
        for u in range(g.n):
            for v in range(g.n):
                c = edges.get((min(u, v), max(u, v)))
                assert graph.colour(u, v) is c
                assert graph.adjacent(u, v) == (c is not None)
        assert graph._colour == edges


@given(signed_graph_st())
@settings(max_examples=100)
def test_the_hash_is_kept_and_equal_graphs_hash_alike(g):
    graphs = (g, parse_graph(serialize_graph(g)), SignedGraph(g.n, g.edges[::-1]))
    for graph in graphs:
        assert "_hash" not in vars(graph)
    first = hash(g)
    assert first == hash((g.n, g.edges)) and vars(g)["_hash"] == first
    for graph in graphs:
        assert hash(graph) == first
        graph.adj_mask, graph.bic_mask, graph._colour
        assert hash(graph) == first and graph == g


def test_accessors():
    g = build_h1()
    assert g.n == 6
    assert g.colour(0, 1) is BLUE
    assert g.colour(1, 0) is BLUE
    assert g.colour(4, 5) is RED
    assert g.colour(0, 3) is BICOLOURED
    assert g.colour(0, 5) is None
    assert g.adjacent(0, 3) and not g.adjacent(1, 3)
    assert sorted(g.neighbours(0)) == [1, 3, 4]
    assert [(u, v) for u, v, c in g.unicoloured_edges() if c is RED] == [(4, 5)]
    assert g.bicoloured_edges() == [(0, 3)]
    # Equal graphs hash alike whatever order their edges came in.
    a = SignedGraph(3, [(1, 2, RED), (0, 1, BICOLOURED)])
    assert repr(a) == (
        "SignedGraph(n=3, edges=[(0, 1, <EdgeColour.BICOLOURED: '*'>), "
        "(1, 2, <EdgeColour.RED: '-'>)])"
    )
    assert hash(a) == hash(SignedGraph(3, [(0, 1, BICOLOURED), (2, 1, RED)]))
    assert len({a, SignedGraph(3, [(0, 1, BICOLOURED), (2, 1, RED)]), g}) == 2


@given(signed_graph_st())
@settings(max_examples=150)
def test_masks_built_on_first_read_match_the_edges(g):
    adj = [0] * g.n
    bic = [0] * g.n
    for u, v, c in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if c is BICOLOURED:
            bic[u] |= 1 << v
            bic[v] |= 1 << u
    parsed = parse_graph(serialize_graph(g))
    for graph in (g, parsed):
        assert graph.adj_mask == adj
        assert graph.bic_mask == bic
        assert graph.adj_mask is graph.adj_mask
        for u in range(g.n):
            assert sorted(graph.neighbours(u)) == [v for v in range(g.n) if adj[u] >> v & 1]
            assert all(graph.adjacent(u, v) == bool(adj[u] >> v & 1) for v in range(g.n))


def test_switching_flips_unicoloured_edges_with_one_flipped_endpoint():
    g = SignedGraph(3, [(0, 1, BLUE), (1, 2, RED), (0, 2, BICOLOURED)])
    sw = apply_switching(g, Switching([1]))
    assert sw.colour(0, 1) is RED
    assert sw.colour(1, 2) is BLUE
    assert sw.colour(0, 2) is BICOLOURED
    both = apply_switching(g, Switching([0, 1]))
    assert both.colour(0, 1) is BLUE
    assert both.colour(1, 2) is BLUE


def test_switching_rejects_unknown_vertices():
    g = SignedGraph(2, [(0, 1, BLUE)])
    with pytest.raises(ValueError, match="unknown vertex"):
        apply_switching(g, Switching([5]))


@given(signed_graph_st(), st.integers(min_value=0, max_value=255))
@settings(max_examples=150)
def test_switching_is_an_involution(g, bits):
    s = Switching(v for v in range(g.n) if bits >> v & 1)
    assert apply_switching(apply_switching(g, s), s) == g


@given(
    st.integers(min_value=3, max_value=8),
    st.lists(st.sampled_from([BLUE, RED]), min_size=3, max_size=8),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=150)
def test_switching_preserves_unicoloured_closed_walk_signs(n, colours, bits):
    colours = (colours * n)[:n]
    g = SignedGraph(n, [(i, (i + 1) % n, colours[i]) for i in range(n)])
    walk = list(range(n)) + [0]
    s = Switching(v for v in range(n) if bits >> v & 1)
    assert walk_sign(g, walk) == walk_sign(apply_switching(g, s), walk)


def test_balanced_examples():
    assert is_balanced(blue_cycle(4)) == Switching()
    one_red = SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])
    s = is_balanced(one_red)
    assert s is None
    assert is_anti_balanced(blue_cycle(5)) is None


def test_balance_is_undefined_with_bicoloured_edges():
    g = build_h1()
    assert is_balanced(g) is None
    assert is_anti_balanced(g) is None


def test_anti_balanced_even_cycle():
    s = is_anti_balanced(blue_cycle(4))
    assert s is not None
    assert all(c is RED for _, _, c in apply_switching(blue_cycle(4), s).edges)


def test_semi_balanced_examples():
    assert is_semi_balanced(build_hl(5)) is not None
    assert is_semi_balanced(build_h1()) is None
    assert is_semi_balanced(build_reduction_target(5)) is None
    only_bic = SignedGraph(2, [(0, 1, BICOLOURED)])
    assert is_semi_balanced(only_bic) == Switching()


@given(signed_graph_st(max_n=6))
@settings(max_examples=100)
def test_balance_notions_agree_with_exhaustive_switching(g):
    assert (is_balanced(g) is None) == (brute_balanced(g) is None)
    assert (is_anti_balanced(g) is None) == (brute_anti_balanced(g) is None)
    assert (is_semi_balanced(g) is None) == (brute_semi_balanced(g) is None)
    s = is_semi_balanced(g)
    if s is not None:
        sw = apply_switching(g, s)
        assert all(c is BLUE for _, _, c in sw.edges if c is not BICOLOURED)


def test_bipartition_examples():
    p = bipartition(blue_cycle(6))
    assert p is not None
    assert {p.side(v) for v in (0, 2, 4)} == {0}
    assert {p.side(v) for v in (1, 3, 5)} == {1}
    assert bipartition(blue_cycle(3)) is None
    two_edges = SignedGraph(4, [(0, 1, BLUE), (2, 3, RED)])
    q = bipartition(two_edges)
    assert [q.side(v) for v in range(4)] == [0, 1, 0, 1]


def test_bipartition_splits_template_endpoints():
    g = build_hl(5)
    p = bipartition(g)
    assert p is not None
    assert p.side(0) != p.side(5)


@given(signed_graph_st())
@settings(max_examples=100)
def test_bipartition_crosses_every_edge(g):
    p = bipartition(g)
    if p is not None:
        for u, v, _ in g.edges:
            assert p.side(u) != p.side(v)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
    st.sampled_from((0.15, 0.3, 0.6)),
    st.sampled_from((0.0, 0.25)),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_parity_walks_match_the_references(seed, n, p_edge, p_bic, bipartite, balanced):
    # Each component's parities are fixed by its root, which is the least
    # vertex, so the shared walk must reproduce the separate walks it
    # replaced exactly.
    rng = random.Random(seed)
    maker = random_bipartite_signed_graph if bipartite else random_signed_graph
    g = maker(rng, n, p_edge, p_bic, 0.0 if balanced else 0.25)
    g = apply_switching(g, random_switching(rng, n))
    plain = not g.bicoloured_edges()
    assert is_semi_balanced(g) == ref_uniform_switching(g, BLUE)
    assert is_balanced(g) == (ref_uniform_switching(g, BLUE) if plain else None)
    assert is_anti_balanced(g) == (ref_uniform_switching(g, RED) if plain else None)
    assert bipartition(g) == ref_bipartition(g)
    _, comps = _parity_walk(_parity_lists(n, ((u, v, 0) for u, v, _ in g.edges)), range(n))
    assert [sorted(c) for c in comps] == ref_components(g)
    if n <= 7:
        h, _ = random_relabel(rng, apply_switching(g, random_switching(rng, n)))
        phi, t = switching_equivalent(g, h)
        s_img = ref_matching_switching(relabel(g, phi), h)
        assert t == Switching(u for u in range(n) if phi[u] in s_img.flipped)


def test_walk_sign_examples():
    h = build_h1()
    assert walk_sign(h, (0, 1, 2, 3)) == "+"
    assert walk_sign(h, (0, 4, 5, 3)) == "-"
    assert walk_sign(h, (0, 3), ("+",)) == "+"
    assert walk_sign(h, (0, 3), ("-",)) == "-"
    r = build_reduction_target(5)
    assert walk_sign(r, (0, 6, 7, 6, 7, 5)) == "-"


def test_walk_sign_errors():
    h = build_h1()
    with pytest.raises(ValueError, match="not an edge"):
        walk_sign(h, (0, 5))
    with pytest.raises(ValueError, match="missing sign choice"):
        walk_sign(h, (0, 3))
    with pytest.raises(ValueError, match="too many"):
        walk_sign(h, (0, 1), ("+",))
    with pytest.raises(ValueError, match="bad sign choice"):
        walk_sign(h, (0, 3), ("?",))


def test_relabel_contract():
    g = build_h1()
    phi = (3, 5, 1, 0, 4, 2)
    r = relabel(g, phi)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert r.colour(phi[u], phi[v]) is g.colour(u, v)
    with pytest.raises(ValueError, match="permutation"):
        relabel(g, (0, 0, 1, 2, 3, 4))


def test_switching_equivalent_positive_cases():
    g = blue_cycle(4)
    two_red = SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, RED)])
    found = switching_equivalent(g, two_red)
    assert found is not None
    phi, s = found
    assert relabel(apply_switching(g, s), list(phi)) == two_red


def test_switching_equivalent_distinguishes_templates():
    assert switching_equivalent(build_h1(), build_hl(3)) is None
    assert switching_equivalent(build_h1(), build_h0()) is None
    # Equal edge counts, unequal bicoloured counts.
    assert switching_equivalent(
        SignedGraph(2, [(0, 1, BLUE)]), SignedGraph(2, [(0, 1, BICOLOURED)])
    ) is None


@given(signed_graph_st(max_n=6), st.integers(min_value=0, max_value=63))
@settings(max_examples=75)
def test_switching_equivalent_finds_planted_equivalences(g, bits):
    s = Switching(v for v in range(g.n) if bits >> v & 1)
    h = apply_switching(g, s)
    found = switching_equivalent(g, h)
    assert found is not None
    phi, t = found
    assert relabel(apply_switching(g, t), list(phi)) == h


def test_switching_equivalent_handles_long_paths():
    # Each vertex is one step of the search, so a search that recursed per
    # vertex would pass the interpreter's recursion limit here.
    n = 1200
    rng = random.Random(7)
    g = SignedGraph(n, [(i, i + 1, BLUE) for i in range(n - 1)])
    phi = list(range(n))
    rng.shuffle(phi)
    h = relabel(apply_switching(g, Switching(rng.sample(range(n), n // 3))), phi)
    found = switching_equivalent(g, h)
    assert found is not None
    psi, t = found
    assert relabel(apply_switching(g, t), list(psi)) == h


def test_build_h0_shape():
    g = build_h0()
    assert g.n == 4
    assert all(c is BLUE for _, _, c in g.edges)
    assert len(g.edges) == 4


def test_one_pass_masks_match_the_two_pass_reference_on_the_sweep():
    for g in form_sweep(5):
        assert sgcore._masks(g.n, g.edges) == ref_mask_rows(g)


@given(st.one_of(form_edge_case_st(), signed_graph_st()))
@settings(max_examples=200)
def test_one_pass_masks_match_the_two_pass_reference_at_the_edges(g):
    assert sgcore._masks(g.n, g.edges) == ref_mask_rows(g)


def test_either_mask_read_first_builds_both_in_one_call(monkeypatch):
    calls = []
    build = sgcore._masks
    monkeypatch.setattr(sgcore, "_masks", lambda n, edges: calls.append(n) or build(n, edges))
    for first, second in (("adj_mask", "bic_mask"), ("bic_mask", "adj_mask")):
        g = build_hl(7)
        calls.clear()
        rows = getattr(g, first), getattr(g, second)
        assert calls == [g.n]
        assert getattr(g, first) is rows[0] and getattr(g, second) is rows[1]
        adj, bic = ref_mask_rows(g)
        assert (g.adj_mask, g.bic_mask) == (adj, bic)
        assert calls == [g.n]
