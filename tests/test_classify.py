"""The dichotomy: template matching for cycles, segmented forms for paths."""

import functools
import importlib
import random
import tracemalloc

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
    ref_align,
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
from sephom import ordering, solver
from sephom.classify import (
    NP_COMPLETE,
    POLYNOMIAL,
    Verdict,
    _align,
    _rank_table,
    _template,
    classify_cycle,
    classify_path,
)
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

    # A kept template would answer without the builder below.
    _template.cache_clear()
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


TEMPLATES = [(H0, None), (H1, None)] + [(HL, ell) for ell in range(3, 62, 2)]


def _template_graph(kind, ell):
    return {H0: build_h0, H1: build_h1}[kind]() if ell is None else build_hl(ell)


def _ring(t, bic):
    """A graph whose cycle_form has t's cycle, sign and the chords bic, with
    vertex i at position i."""
    n = len(t.order)
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges.append((0, n - 1, RED if t.cycle_sign == "-" else BLUE))
    return SignedGraph(n, edges + [(a, b, BICOLOURED) for a, b in bic])


def _chord_moves(t):
    """Each (chord, moved chord) of t with one end of the chord moved two
    places along the cycle, either way, onto a pair that is no chord: the
    chord count and parity stay."""
    n = len(t.order)
    bic = t.bic
    for a, b in sorted(bic):
        for end in (0, 1):
            for d in (2, -2):
                x, y = (a, (b + d) % n) if end else ((a + d) % n, b)
                x, y = min(x, y), max(x, y)
                if y - x not in (1, n - 1) and (x, y) not in bic:
                    yield (a, b), (x, y)


def _near_misses(t):
    """t's chords with one of them moved (see _chord_moves)."""
    bic = t.bic
    for old, new in _chord_moves(t):
        yield (bic - {old}) | {new}


def test_alignment_matches_the_full_scan():
    rng = random.Random(31)
    forms = [cycle_form(g) for g in enum_targets("cycle", 10)]
    for kind, ell in TEMPLATES:
        h = _template_graph(kind, ell)
        forms += [cycle_form(quick_disguise(rng, h)) for _ in range(4)]
        if kind == HL:
            t = template_cycle_form(kind, ell)
            forms += [cycle_form(quick_disguise(rng, _ring(t, bic))) for bic in _near_misses(t)]
    compared = matched = 0
    shapes = [(len(t.order), t.cycle_sign, len(t.bic)) for t in map(template_cycle_form, *zip(*TEMPLATES))]
    for c in forms:
        shape = (len(c.order), c.cycle_sign, len(c.bic))
        for (kind, ell), same in zip(TEMPLATES, shapes):
            if shape != same:
                continue
            t = template_cycle_form(kind, ell)
            phi = _align(c, kind, ell)
            assert phi == ref_align(c, t)
            compared += 1
            matched += phi is not None
    assert compared > 1000 and 100 < matched < compared


def test_self_alignments_are_the_template_symmetries():
    # Brute force over the 2n rotations and reflections of each template.
    for kind, ell in TEMPLATES:
        t = template_cycle_form(kind, ell)
        n = len(t.order)
        brute = set()
        for s in range(n):
            for step in (1, -1):
                img = [(s + step * i) % n for i in range(n)]
                if {tuple(sorted((img[a], img[b]))) for a, b in t.bic} == t.bic:
                    brute.add(tuple(t.order[i] for i in img))
        selves = _template(kind, ell)[2]
        assert selves[0] == t.order
        assert len(selves) == len(brute) == {H0: 8, H1: 4, HL: 4 if ell == 3 else 2}[kind]
        assert set(selves) == brute


def test_each_template_is_built_once_across_calls(monkeypatch):
    built = []
    real = template_cycle_form

    def counted(kind, ell=None):
        built.append((kind, ell))
        return real(kind, ell)

    monkeypatch.setattr(importlib.import_module("sephom.targets"), "template_cycle_form", counted)
    _template.cache_clear()
    rng = random.Random(33)
    keys = [(H0, None), (H1, None), (HL, 5), (HL, 61), (HL, 7)]
    for _ in range(3):
        for kind, ell in keys + keys[::-1]:
            assert classify(quick_disguise(rng, _template_graph(kind, ell))).complexity == POLYNOMIAL
    assert built == keys


def test_template_table_stays_bounded():
    _template.cache_clear()
    maxsize = _template.cache_info().maxsize
    for ell in range(3, 2 * maxsize + 12, 2):
        assert classify(build_hl(ell)).reason == "MatchesHl(%d)" % ell
    assert _template.cache_info().currsize == maxsize


def test_warm_and_cold_template_tables_agree():
    rng = random.Random(34)
    graphs = [quick_disguise(rng, _template_graph(kind, ell)) for kind, ell in TEMPLATES]
    graphs += enum_targets("cycle", 8)
    hits = 0
    for g in graphs:
        _template.cache_clear()
        cold = verdict_dict(classify(g))
        assert verdict_dict(classify(g)) == cold
        hits += _template.cache_info().hits
    assert hits >= len(TEMPLATES)


def _moved_chords(rng, t, count):
    """count random near misses of t (see _near_misses), or all it has."""
    moves = list(_chord_moves(t))
    return [(t.bic - {old}) | {new} for old, new in rng.sample(moves, min(count, len(moves)))]


@functools.lru_cache(maxsize=1)
def _template_sweep():
    """(template key, disguised graph) for H0, H1 and every Hl(ell) with
    ell = 3..253: two disguised copies and, for Hl, two near misses of each
    (Hl(3) has none); built once for the tests that share it."""
    rng = random.Random(35)
    sweep = []
    for kind, ell in [(H0, None), (H1, None)] + [(HL, ell) for ell in range(3, 254, 2)]:
        h = _template_graph(kind, ell)
        sweep += [((kind, ell), quick_disguise(rng, h)) for _ in range(2)]
        if kind == HL:
            t = template_cycle_form(kind, ell)
            sweep += [((kind, ell), quick_disguise(rng, _ring(t, bic))) for bic in _moved_chords(rng, t, 2)]
    return tuple(sweep)


def test_alignment_matches_the_full_scan_up_to_ell_253():
    compared = matched = 0
    for (kind, ell), g in _template_sweep():
        c = cycle_form(g)
        phi = _align(c, kind, ell)
        assert phi == ref_align(c, template_cycle_form(kind, ell))
        compared += 1
        matched += phi is not None
    assert compared == 2 + 2 + 2 + 125 * 4 and matched == 2 + 2 + 126 * 2


def test_a_template_match_reads_its_rank_rows_off_the_template(monkeypatch):
    # The table solve builds from the template is _rank_rows' element for
    # element, and solve on a matched target builds no _rank_rows of its
    # own; solve_ordered called directly builds one.
    built = []
    real = ordering._rank_rows

    def counted(g, o):
        built.append(g)
        return real(g, o)

    matched = 0
    for (kind, ell), g in _template_sweep():
        v = classify(g)
        if v.complexity != POLYNOMIAL:
            assert _rank_table(g, v) is None
            continue
        matched += 1
        assert _rank_table(g, v) == real(g, v.ordering)
        if g.n > 40:
            continue
        inst = solver.Instance(blue_path(3), [range(g.n)] * 3)
        with monkeypatch.context() as m:
            m.setattr(ordering, "_rank_rows", counted)
            m.setattr(solver, "_rank_rows", counted)
            built.clear()
            assert solver.solve(g, inst) is not None
            assert built == []
            if kind != H1:
                assert solver.solve_ordered(inst, g, v.ordering) == solver.solve(g, inst, "ordered")
                assert built == [g]
    assert matched == 2 + 2 + 126 * 2


def test_the_hl_1001_template_entry_stays_under_a_megabyte():
    # Its rows hold O(n) ints of n bits, not n^2 / 8 chord tuples.
    _template.cache_clear()
    tracemalloc.start()
    try:
        e = _template(HL, 1001)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _template.cache_clear()
    assert len(e.form.order) == 1004
    assert size < 1 << 20
