"""The dichotomy: template matching for cycles, segmented forms for paths."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_special_min_ordering,
    quick_disguise,
    random_path_target,
    random_relabel,
    random_segmented_path,
    random_switching,
    ref_bipartition,
    ref_cycle_form,
    ref_path_form,
    spine_graph_st,
)
from sephom import (
    BLUE,
    RED,
    BICOLOURED,
    SignedGraph,
    apply_switching,
    build_h0,
    build_h1,
    build_hl,
    build_reduction_target,
    classify,
    enum_targets,
    is_semi_balanced,
    relabel,
    switching_equivalent,
    verdict_dict,
)
from sephom.classify import NP_COMPLETE, POLYNOMIAL, Verdict, classify_cycle, classify_path
from sephom.ordering import ordering_for_cycle_target, verify_min_ordering, verify_special
from sephom.separable import NOT_SEGMENTED, cycle_form, path_form, segmented_form
from sephom.targets import H0, H1, HL, template_cycle_form, template_pair_count, template_pairs
from sephom.witness import Chain, InvertiblePair, verify_chain, verify_invertible_pair


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges += [(i, j, BICOLOURED) for i, j in bic]
    return SignedGraph(n, edges)


def test_template_targets_are_polynomial():
    for g, reason in (
        (build_h0(), "MatchesH0"),
        (build_h1(), "MatchesH1"),
        (build_hl(5), "MatchesHl(5)"),
        (build_hl(7), "MatchesHl(7)"),
    ):
        v = classify(g)
        assert v.complexity == POLYNOMIAL
        assert v.reason == reason
        assert verify_min_ordering(g, v.ordering) is None
        assert verify_special(g, v.ordering) is None


def test_segmented_paths_are_polynomial():
    g = blue_path(8, [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)])
    v = classify(g)
    assert v.complexity == POLYNOMIAL
    assert v.reason == "Segmented(RightSegmented)"
    assert verify_min_ordering(g, v.ordering) is None
    assert verify_special(g, v.ordering) is None


def test_non_segmented_paths_carry_a_verified_chain():
    g = blue_path(6, [(0, 3), (2, 5)])
    v = classify(g)
    assert v.complexity == NP_COMPLETE
    assert v.reason == "NotSegmented"
    assert v.witness == Chain(U=(2, 1, 0, 3), D=(2, 5, 2, 3))
    assert verify_chain(g, v.witness)


def test_non_template_cycles():
    unbal_c4 = SignedGraph(
        4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)]
    )
    for g in (
        SignedGraph(6, [(i, (i + 1) % 6, BLUE) for i in range(6)]),
        unbal_c4,
        build_reduction_target(5),
    ):
        v = classify(g)
        assert v.complexity == NP_COMPLETE
        assert v.reason == "NoTemplateMatch"
        assert v.ordering is None


def test_non_bipartite_targets():
    for n in (3, 5):
        g = SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)])
        v = classify(g)
        assert v.complexity == NP_COMPLETE
        assert v.reason == "NonBipartite"
        assert v.witness is None


@given(spine_graph_st())
@settings(max_examples=400, deadline=None)
def test_one_pass_forms_and_bipartiteness_match_the_references(g):
    p, c = ref_path_form(g), ref_cycle_form(g)
    assert path_form(g) == p
    assert cycle_form(g) == c
    try:
        v = classify(g)
    except ValueError:
        assert p is None and c is None and ref_bipartition(g) is not None
        return
    assert (v.reason == "NonBipartite") == (ref_bipartition(g) is None)


def test_separable_targets_classify_without_the_bipartition_walk(monkeypatch):
    def forbidden(g):
        raise AssertionError("bipartition walk on a target with a form")

    monkeypatch.setattr(importlib.import_module("sephom.classify"), "bipartition", forbidden)
    odd_cycles = [SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)]) for n in (3, 5)]
    for kind in ("path", "cycle"):
        for g in enum_targets(kind, 8):
            classify(g)
    assert [classify(g).reason for g in odd_cycles] == ["NonBipartite"] * 2


def test_form_entry_points_agree_with_classify():
    # classify_path and classify_cycle once skipped the bipartiteness test
    # and gave these odd-cycle targets NotSegmented and NoTemplateMatch.
    c6 = SignedGraph(6, [(i, (i + 1) % 6, BLUE) for i in range(6)] + [(0, 2, BICOLOURED)])
    c5 = SignedGraph(5, [(i, i + 1, BLUE) for i in range(4)] + [(0, 4, RED)])
    for g, entry in ((blue_path(3, [(0, 2)]), classify_path), (c6, classify_cycle),
                     (c5, classify_cycle)):
        assert entry(g) == classify(g) == Verdict(NP_COMPLETE, "NonBipartite")
    # Spanning paths and cycles with bicoloured chords at any distance.
    rng = random.Random(2025)
    odd = 0
    for k in range(400):
        cycle = k % 2
        n = rng.randint(3 + cycle, 12)
        spine = [(i, (i + 1) % n) for i in range(n - 1 + cycle)]
        edges = [(u, v, rng.choice((BLUE, RED))) for u, v in spine]
        edges += [
            (i, j, BICOLOURED)
            for i in range(n)
            for j in range(i + 2, n)
            if not (cycle and (i, j) == (0, n - 1)) and rng.random() < 0.2
        ]
        g, _ = random_relabel(rng, SignedGraph(n, edges))
        v = (classify_cycle if cycle else classify_path)(g)
        assert v == classify(g)
        odd += v.reason == "NonBipartite"
    assert odd > 100


def test_non_separable_targets_are_rejected():
    star = SignedGraph(4, [(0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)])
    with pytest.raises(ValueError, match="neither a spanning path nor cycle"):
        classify(star)
    with pytest.raises(ValueError, match="do not form a spanning path"):
        classify_path(build_h0())
    with pytest.raises(ValueError, match="do not form a spanning cycle"):
        classify_cycle(SignedGraph(3, [(0, 1, BLUE), (1, 2, BLUE)]))


def test_relabeled_template_ordering_is_pulled_back():
    g = relabel(build_hl(5), [3, 5, 1, 0, 4, 2, 7, 6])
    v = classify(g)
    assert v.complexity == POLYNOMIAL
    assert v.reason == "MatchesHl(5)"
    assert verify_min_ordering(g, v.ordering) is None
    assert verify_special(g, v.ordering) is None


def test_verdict_dict_shapes():
    d = verdict_dict(classify(blue_path(8, [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)])))
    assert d["complexity"] == "P"
    assert d["reason"] == "Segmented(RightSegmented)"
    assert d["witness"] is None
    assert d["ordering"] == {"white": [0, 2, 4, 6], "black": [7, 5, 3, 1]}
    d = verdict_dict(classify(blue_path(6, [(0, 3), (2, 5)])))
    assert d["complexity"] == "NPC"
    assert d["witness"]["kind"] == "chain"
    assert d["ordering"] is None


def test_path_dichotomy_matches_the_segmented_form():
    for g in enum_targets("path", 7):
        v = classify(g)
        segmented = segmented_form(path_form(g)).kind != NOT_SEGMENTED
        assert (v.complexity == POLYNOMIAL) == segmented
        if v.complexity == POLYNOMIAL:
            assert verify_min_ordering(g, v.ordering) is None
            assert verify_special(g, v.ordering) is None
        else:
            assert isinstance(v.witness, Chain)
            assert verify_chain(g, v.witness)


def test_cycle_verdicts_only_match_templates():
    for g in enum_targets("cycle", 6):
        v = classify(g)
        assert (v.complexity == POLYNOMIAL) == v.reason.startswith("Matches")


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=75, deadline=None)
def test_verdict_invariant_under_switching_and_relabeling(seed):
    rng = random.Random(seed)
    base = rng.choice(
        (
            build_h0(),
            build_h1(),
            build_hl(5),
            build_reduction_target(5),
            blue_path(6, ((0, 3), (2, 5))),
            random_path_target(rng, rng.randint(2, 9)),
        )
    )
    v = classify(base)
    switched = apply_switching(base, random_switching(rng, base.n))
    shuffled, _ = random_relabel(rng, switched)
    w = classify(shuffled)
    assert w.complexity == v.complexity
    mirror = {
        "Segmented(RightSegmented)": "Segmented(LeftSegmented)",
        "Segmented(LeftSegmented)": "Segmented(RightSegmented)",
    }
    assert w.reason in (v.reason, mirror.get(v.reason, v.reason))
    if w.complexity == POLYNOMIAL and w.reason.startswith("Segmented"):
        assert verify_min_ordering(shuffled, w.ordering) is None
        assert verify_special(shuffled, w.ordering) is None


def test_template_pair_count_is_the_number_of_pairs():
    for ell in range(3, 102):
        assert template_pair_count(ell) == len(template_pairs(ell))


def test_chordless_cycles_never_build_the_template(monkeypatch):
    # Hl(n - 3) has chords, so a chordless balanced cycle is decided
    # without its n^2 / 8 template pairs.
    def forbidden(kind, ell=None):
        raise AssertionError("template built for a chordless cycle")

    monkeypatch.setattr(importlib.import_module("sephom.targets"), "template_cycle_form", forbidden)
    for n in range(6, 31, 2):
        g = SignedGraph(n, [(i, (i + 1) % n, BLUE) for i in range(n)])
        assert classify(g).reason == "NoTemplateMatch"


def test_template_cycle_forms_match_the_built_graphs():
    assert template_cycle_form(H0) == cycle_form(build_h0())
    assert template_cycle_form(H1) == cycle_form(build_h1())
    for ell in range(3, 62, 2):
        assert template_cycle_form(HL, ell) == cycle_form(build_hl(ell))
    for bad in (1, 4, None):
        with pytest.raises(ValueError, match="odd count >= 3"):
            template_cycle_form(HL, bad)
    with pytest.raises(ValueError, match="unknown target kind 'H2'"):
        template_cycle_form("H2")


def _template_phi(verdict, kind, ell):
    """The vertex map behind a Matches* verdict: its ordering is the
    template's recipe ordering with each template vertex renamed by phi."""
    recipe = ordering_for_cycle_target(kind, ell)
    phi = dict(zip(verdict.ordering.white_order, recipe.white_order))
    phi.update(zip(verdict.ordering.black_order, recipe.black_order))
    return tuple(phi[v] for v in range(len(phi)))


@given(
    st.sampled_from([(H0, None), (H1, None)] + [(HL, ell) for ell in range(3, 16, 2)]),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_template_matches_pick_the_least_equivalence(template, seed):
    kind, ell = template
    h = {H0: build_h0, H1: build_h1}[kind]() if ell is None else build_hl(ell)
    rng = random.Random(seed)
    g, _ = random_relabel(rng, apply_switching(h, random_switching(rng, h.n)))
    v = classify(g)
    assert v.complexity == POLYNOMIAL
    assert v.reason == {H0: "MatchesH0", H1: "MatchesH1"}.get(kind, "MatchesHl(%s)" % ell)
    assert _template_phi(v, kind, ell) == switching_equivalent(g, h)[0]


def test_cycle_verdicts_carry_verified_witnesses():
    """Every NP-complete cycle verdict with n <= 10 carries a witness that
    its checker accepts, except on three targets: the unbalanced 4-cycle and
    the targets switching-equivalent to the reduction targets for 5 and 7."""
    bare = []
    for g in enum_targets("cycle", 10):
        v = classify(g)
        if v.complexity != NP_COMPLETE:
            continue
        if isinstance(v.witness, Chain):
            assert verify_chain(g, v.witness)
        elif isinstance(v.witness, InvertiblePair):
            assert verify_invertible_pair(g, v.witness)
        else:
            assert v.witness is None
            bare.append(g)
    assert len(bare) == 3
    unbalanced_c4 = SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])
    for g, h in zip(
        bare, (unbalanced_c4, build_reduction_target(5), build_reduction_target(7))
    ):
        assert switching_equivalent(g, h) is not None


def test_special_min_orderings_exist_exactly_on_the_polynomial_side():
    """Every pair of class orders, tried with both verifiers, settles the
    boundary apart from the segment and template machinery: on a
    semi-balanced target with n <= 8 a special min ordering exists exactly
    when classify says P. Three cycle targets outside semi-balance have one
    too: the unbalanced 4-cycle, H1 and build_reduction_target(5)."""
    exceptions = []
    for kind in ("path", "cycle"):
        for g in enum_targets(kind, 8):
            found = brute_special_min_ordering(g) is not None
            if is_semi_balanced(g) is not None:
                assert found == (classify(g).complexity == POLYNOMIAL)
            elif found:
                exceptions.append(g)
    unbalanced_c4 = SignedGraph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])
    pinned = (unbalanced_c4, build_h1(), build_reduction_target(5))
    assert len(exceptions) == len(pinned)
    for g, h in zip(exceptions, pinned):
        assert switching_equivalent(g, h) is not None
    assert [classify(g).complexity for g in exceptions] == [
        NP_COMPLETE,
        POLYNOMIAL,
        NP_COMPLETE,
    ]


def test_p_verdicts_on_paths_and_plus_cycles_carry_a_semi_balancing_switching():
    rng = random.Random(30)
    shapes = list(enum_targets("path", 10)) + list(enum_targets("cycle", 10))
    shapes += [build_h0(), build_hl(5), build_hl(61)]
    shapes += [random_segmented_path(rng, n) for n in (16, 40, 64) for _ in range(4)]
    carried = 0
    for g in [quick_disguise(rng, g) for g in shapes]:
        v = classify(g)
        if v.complexity == POLYNOMIAL and v.reason != "MatchesH1":
            assert RED not in {c for _, _, c in apply_switching(g, v.switching).edges}
            assert v.switching.flipped <= set(range(g.n))
            carried += 1
        else:
            assert v.switching is None
    assert carried > 100


def test_np_verdicts_and_matches_h1_carry_no_switching():
    rng = random.Random(31)
    for g in (build_h1(), build_reduction_target(5), blue_path(6, [(0, 3), (1, 4)]),
              blue_path(3, [(0, 2)])):
        g = quick_disguise(rng, g)
        assert classify(g).switching is None
    assert classify(build_h1()).reason == "MatchesH1"


def test_the_switching_takes_no_part_in_equality_repr_or_the_verdict_dict():
    g = quick_disguise(random.Random(32), build_hl(7))
    v = classify(g)
    bare = Verdict(v.complexity, v.reason, v.witness, v.ordering)
    assert v.switching is not None and bare.switching is None
    assert v == bare and hash(v) == hash(bare) and repr(v) == repr(bare)
    assert verdict_dict(v) == verdict_dict(bare)
    assert "switching" not in verdict_dict(v)
