"""Min orderings with the bicoloured-first refinement, and the recipes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_min_ordering_violation,
    brute_special_violation,
    hl61_with_ends_swapped,
)
from sephom import (
    BICOLOURED,
    BLUE,
    RED,
    SignedGraph,
    build_h0,
    build_h1,
    build_hl,
)
from sephom.ordering import (
    Ordering,
    ordering_for_cycle_target,
    ordering_for_segmented,
    verify_min_ordering,
    verify_special,
)
from sephom.separable import path_form, segmented_form

H3_GOOD = Ordering(black_order=(3, 1, 4), white_order=(0, 2, 5))


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges += [(i, j, BICOLOURED) for i, j in bic]
    return SignedGraph(n, edges)


def blue_cycle(n):
    return SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)])


def test_class_partition_is_validated():
    g = blue_path(4)
    with pytest.raises(ValueError, match="repeats"):
        verify_min_ordering(g, Ordering((1, 1, 3), (0, 2)))
    with pytest.raises(ValueError, match="partition"):
        verify_min_ordering(g, Ordering((1,), (0, 2)))
    with pytest.raises(ValueError, match="edge inside"):
        verify_min_ordering(g, Ordering((1, 2), (0, 3)))
    with pytest.raises(ValueError, match="partition"):
        verify_special(g, Ordering((1,), (0, 2)))


def test_min_ordering_violation_on_the_six_cycle():
    g = blue_cycle(6)
    o = Ordering(black_order=(1, 3, 5), white_order=(0, 2, 4))
    assert verify_min_ordering(g, o) == (0, 2, 3, 5)
    assert verify_special(g, o) is None


def test_template_ordering_passes_both_verifiers():
    g3 = build_hl(3)
    assert verify_min_ordering(g3, H3_GOOD) is None
    assert verify_special(g3, H3_GOOD) is None


def test_reordered_whites_break_the_min_property():
    g3 = build_hl(3)
    bad = Ordering(black_order=(3, 1, 4), white_order=(0, 5, 2))
    assert verify_min_ordering(g3, bad) == (5, 2, 1, 4)
    assert verify_special(g3, bad) is None


def test_special_violation_when_unicoloured_precedes_bicoloured():
    g3 = build_hl(3)
    bad = Ordering(black_order=(1, 3, 4), white_order=(0, 2, 5))
    v = verify_special(g3, bad)
    assert v is not None
    vertex, bic_nbr, uni_nbr = v
    assert g3.colour(vertex, bic_nbr) is BICOLOURED
    assert g3.colour(vertex, uni_nbr) is not BICOLOURED


def test_recipe_for_trivial_paths():
    pf = path_form(blue_path(5))
    o = ordering_for_segmented(pf, segmented_form(pf))
    assert o == Ordering(black_order=(1, 3), white_order=(0, 2, 4))


def test_recipe_for_right_segmented():
    g = blue_path(8, [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)])
    pf = path_form(g)
    o = ordering_for_segmented(pf, segmented_form(pf))
    assert o == Ordering(black_order=(7, 5, 3, 1), white_order=(0, 2, 4, 6))
    assert verify_min_ordering(g, o) is None
    assert verify_special(g, o) is None


def test_recipe_for_left_right_segmented():
    fig = (
        [(0, 7), (2, 7), (4, 7), (0, 9), (2, 9), (4, 9), (6, 9)]
        + [(1, 14), (3, 14), (5, 14), (7, 14), (9, 14), (11, 14)]
        + [(11, 16), (11, 18)]
        + [(14, 17), (14, 19), (16, 19)]
        + [(1, 16), (1, 18), (3, 16), (3, 18), (5, 16), (5, 18)]
        + [(7, 16), (7, 18), (9, 16), (9, 18)]
    )
    g = blue_path(20, fig)
    pf = path_form(g)
    o = ordering_for_segmented(pf, segmented_form(pf))
    assert o == Ordering(
        black_order=(9, 7, 1, 3, 5, 11, 19, 17, 15, 13),
        white_order=(14, 16, 18, 0, 2, 4, 6, 8, 10, 12),
    )
    assert verify_min_ordering(g, o) is None
    assert verify_special(g, o) is None


def test_recipe_rejects_unusable_forms():
    pf = path_form(blue_path(6, [(0, 3), (2, 5)]))
    with pytest.raises(ValueError, match="no ordering"):
        ordering_for_segmented(pf, segmented_form(pf))
    from sephom.separable import LEFT_RIGHT_SEGMENTED, SegmentedForm

    with pytest.raises(ValueError, match="pivot"):
        ordering_for_segmented(pf, SegmentedForm(LEFT_RIGHT_SEGMENTED, None))


def test_cycle_target_orderings():
    assert ordering_for_cycle_target("H0") == Ordering((1, 3), (0, 2))
    assert ordering_for_cycle_target("H1") == H3_GOOD
    assert ordering_for_cycle_target("Hl", 5) == Ordering((5, 3, 1, 6), (0, 2, 4, 7))
    for g, o in (
        (build_h0(), ordering_for_cycle_target("H0")),
        (build_h1(), ordering_for_cycle_target("H1")),
        (build_hl(3), ordering_for_cycle_target("Hl", 3)),
        (build_hl(7), ordering_for_cycle_target("Hl", 7)),
    ):
        assert verify_min_ordering(g, o) is None
        assert verify_special(g, o) is None


def test_cycle_target_ordering_validation():
    with pytest.raises(ValueError, match="odd"):
        ordering_for_cycle_target("Hl", 4)
    with pytest.raises(ValueError, match="odd"):
        ordering_for_cycle_target("Hl", 1)
    with pytest.raises(ValueError, match="unknown target kind"):
        ordering_for_cycle_target("H9")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=400, deadline=None)
def test_verifiers_match_the_brute_references(seed):
    # Shuffled class orders make most draws violate, so the reported tuple,
    # not only its absence, is compared.
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    side = [rng.randrange(2) for _ in range(n)]
    p_edge = rng.choice((0.3, 0.6, 0.9))
    edges = [
        (u, v, rng.choice((BLUE, RED, BICOLOURED)))
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < p_edge
    ]
    g = SignedGraph(n, edges)
    white = [v for v in range(n) if not side[v]]
    black = [v for v in range(n) if side[v]]
    rng.shuffle(white)
    rng.shuffle(black)
    o = Ordering(black_order=tuple(black), white_order=tuple(white))
    assert verify_min_ordering(g, o) == brute_min_ordering_violation(g, o)
    assert verify_special(g, o) == brute_special_violation(g, o)


def test_large_template_ordering_passes_both_verifiers():
    g = build_hl(61)
    o = ordering_for_cycle_target("Hl", 61)
    assert verify_min_ordering(g, o) is None
    assert verify_special(g, o) is None


def test_large_template_with_swapped_whites_matches_the_references():
    g, bad = hl61_with_ends_swapped()
    found = verify_min_ordering(g, bad)
    assert found is not None
    assert found == brute_min_ordering_violation(g, bad)
    found = verify_special(g, bad)
    assert found is not None
    assert found == brute_special_violation(g, bad)
