"""Path and cycle forms, blocks, segments, and the segmented-form kinds."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chord_pairs,
    form_edge_case_st,
    form_sweep,
    random_cycle_target,
    random_path_target,
    random_segmented_path,
    random_switching,
    ref_form,
    ref_matching_kinds,
    spine_graph_st,
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
    build_reduction_target,
    enum_targets,
    relabel,
    template_pairs,
)
from sephom import separable
from sephom.separable import (
    LEFT_RIGHT_SEGMENTED,
    LEFT_SEGMENTED,
    NOT_SEGMENTED,
    RIGHT_SEGMENTED,
    TRIVIAL_PATH,
    PathForm,
    Segment,
    SegmentedForm,
    _chord_rows,
    cycle_form,
    find_segments,
    path_form,
    segmented_form,
)

FIG_BIC = (
    [(0, 7), (2, 7), (4, 7), (0, 9), (2, 9), (4, 9), (6, 9)]
    + [(1, 14), (3, 14), (5, 14), (7, 14), (9, 14), (11, 14)]
    + [(11, 16), (11, 18)]
    + [(14, 17), (14, 19), (16, 19)]
    + [(1, 16), (1, 18), (3, 16), (3, 18), (5, 16), (5, 18)]
    + [(7, 16), (7, 18), (9, 16), (9, 18)]
)


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges += [(i, j, BICOLOURED) for i, j in bic]
    return SignedGraph(n, edges)


def test_path_form_canonical_orientation():
    g = SignedGraph(3, [(0, 2, BLUE), (0, 1, RED)])
    pf = path_form(g)
    assert pf.order == (1, 0, 2)


def test_path_form_rejects_non_paths():
    assert path_form(build_h0()) is None
    assert path_form(SignedGraph(4, [(0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)])) is None
    assert path_form(SignedGraph(4, [(0, 1, BLUE), (2, 3, BLUE)])) is None
    assert path_form(SignedGraph(0, [])) is None
    # A path and a disjoint triangle: the degrees fit, the walk stops short.
    path_and_cycle = SignedGraph(
        6, [(0, 1, BLUE), (1, 2, BLUE), (3, 4, BLUE), (4, 5, BLUE), (3, 5, BLUE)]
    )
    assert path_form(path_and_cycle) is None


def test_path_form_bic_as_positions():
    g = SignedGraph(4, [(0, 2, BLUE), (0, 1, RED), (1, 3, BLUE), (2, 3, BICOLOURED)])
    pf = path_form(g)
    assert pf.order == (2, 0, 1, 3)
    assert pf.rows == (0b1000, 0, 0, 0b0001)
    assert chord_pairs(pf) == {(0, 3)}


def test_cycle_form_examples():
    cf = cycle_form(build_h0())
    assert (cf.order, cf.cycle_sign, cf.rows) == ((0, 1, 2, 3), "+", (0, 0, 0, 0))
    cf = cycle_form(build_h1())
    assert cf.order == (0, 1, 2, 3, 5, 4)
    assert cf.cycle_sign == "-"
    assert chord_pairs(cf) == {(0, 3)}
    cf = cycle_form(build_hl(5))
    assert cf.cycle_sign == "+"
    assert chord_pairs(cf) == set(template_pairs(5))
    assert cycle_form(build_reduction_target(5)).cycle_sign == "-"
    tri = SignedGraph(3, [(0, 1, BLUE), (1, 2, BLUE), (0, 2, RED)])
    assert cycle_form(tri).cycle_sign == "-"


def test_cycle_form_rejects_non_cycles():
    assert cycle_form(blue_path(4)) is None
    assert cycle_form(build_h0().__class__(4, [(0, 1, BLUE), (2, 3, BLUE)])) is None
    # Two disjoint triangles: 2-regular, but the walk from 0 spans only one.
    triangles = SignedGraph(
        6, [(0, 1, BLUE), (1, 2, BLUE), (0, 2, BLUE), (3, 4, BLUE), (4, 5, BLUE), (3, 5, BLUE)]
    )
    assert cycle_form(triangles) is None


def test_segment_geometry():
    s = Segment(4, 2)
    assert s.end == 9


def test_find_segments_single_run():
    pf = path_form(blue_path(6, [(0, 3), (2, 5)]))
    segs = find_segments(pf)
    assert [(s.start, s.j) for s in segs] == [(0, 2)]


def test_find_segments_fig_example():
    pf = path_form(blue_path(20, FIG_BIC))
    segs = find_segments(pf)
    assert [(s.start, s.j) for s in segs] == [(4, 2), (11, 1), (14, 2)]


def test_matching_kinds_and_precedence():
    # The path matches Right, Left and LeftRight at once; Right decides.
    pf = path_form(blue_path(6, [(0, 3), (2, 5), (0, 5)]))
    kinds = ref_matching_kinds(pf)
    assert set(kinds) == {RIGHT_SEGMENTED, LEFT_SEGMENTED, LEFT_RIGHT_SEGMENTED}
    assert kinds[LEFT_RIGHT_SEGMENTED] == Segment(0, 2)
    assert segmented_form(pf) == _precedence_pick(kinds)
    assert segmented_form(pf).kind == RIGHT_SEGMENTED


def test_a_matching_closure_decides_without_reading_the_segments(monkeypatch):
    def forbidden(p):
        raise AssertionError("find_segments called")

    right = path_form(blue_path(8, [(0, 3), (0, 5), (0, 7)]))
    left = PathForm(right.order, _chord_rows(range(8), ((7 - b, 7 - a) for a, b in chord_pairs(right))))
    monkeypatch.setattr(separable, "find_segments", forbidden)
    assert segmented_form(right) == SegmentedForm(RIGHT_SEGMENTED)
    assert segmented_form(left) == SegmentedForm(LEFT_SEGMENTED)


def test_mandated_set_must_match_exactly():
    pf = path_form(blue_path(6, [(0, 3), (2, 5)]))
    assert segmented_form(pf) == _precedence_pick(ref_matching_kinds(pf))
    assert segmented_form(pf).kind == NOT_SEGMENTED


def test_adjacent_blocks_are_never_segmented():
    pf = path_form(blue_path(6, [(0, 3), (1, 4)]))
    assert segmented_form(pf) == _precedence_pick(ref_matching_kinds(pf))
    assert segmented_form(pf).kind == NOT_SEGMENTED


def test_trivial_path_kinds():
    assert segmented_form(path_form(blue_path(5))).kind == TRIVIAL_PATH
    assert segmented_form(path_form(SignedGraph(1, []))).kind == TRIVIAL_PATH


def test_right_segmented_full_closure():
    bic = [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)]
    sf = segmented_form(path_form(blue_path(8, bic)))
    assert sf.kind == RIGHT_SEGMENTED
    assert sf.pivot is None


def test_left_right_pivot_fig_example():
    sf = segmented_form(path_form(blue_path(20, FIG_BIC)))
    assert sf.kind == LEFT_RIGHT_SEGMENTED
    assert (sf.pivot.start, sf.pivot.j) == (11, 1)


def test_reflection_mirrors_the_matching_kinds():
    swap = {RIGHT_SEGMENTED: LEFT_SEGMENTED, LEFT_SEGMENTED: RIGHT_SEGMENTED}
    bic = [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)]
    for n, pairs in ((8, bic), (20, FIG_BIC)):
        g = blue_path(n, pairs)
        pf, mirror = path_form(g), path_form(relabel(g, [n - 1 - i for i in range(n)]))
        kinds, mirror_kinds = ref_matching_kinds(pf), ref_matching_kinds(mirror)
        assert set(mirror_kinds) == {swap.get(k, k) for k in kinds}
        assert segmented_form(pf) == _precedence_pick(kinds)
        assert segmented_form(mirror) == _precedence_pick(mirror_kinds)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_segmented_form_invariant_under_switching(seed):
    rng = random.Random(seed)
    g = random_path_target(rng, rng.randint(2, 10), p_chord=0.35)
    switched = apply_switching(g, random_switching(rng, g.n))
    assert segmented_form(path_form(switched)) == segmented_form(path_form(g))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_segmented_form_invariant_under_relabeling_up_to_mirror(seed):
    swap = {RIGHT_SEGMENTED: LEFT_SEGMENTED, LEFT_SEGMENTED: RIGHT_SEGMENTED}
    rng = random.Random(seed)
    g = random_path_target(rng, rng.randint(2, 10), p_chord=0.35)
    base = segmented_form(path_form(g)).kind
    phi = list(range(g.n))
    rng.shuffle(phi)
    kind = segmented_form(path_form(relabel(g, phi))).kind
    assert kind in {base, swap.get(base, base)}


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100)
def test_segment_runs_tile_the_block_starts(seed):
    rng = random.Random(seed)
    g = random_path_target(rng, rng.randint(4, 12), p_chord=0.3)
    pf = path_form(g)
    starts = {i for i, j in chord_pairs(pf) if j == i + 3}
    covered = set()
    for s in find_segments(pf):
        run = set(range(s.start, s.start + 2 * s.j, 2))
        assert run <= starts
        covered |= run
    assert covered == starts


def _precedence_pick(kinds):
    for kind in (TRIVIAL_PATH, RIGHT_SEGMENTED, LEFT_SEGMENTED, LEFT_RIGHT_SEGMENTED):
        if kind in kinds:
            return SegmentedForm(kind, kinds[kind])
    return SegmentedForm(NOT_SEGMENTED)


def test_block_closures_match_the_segment_closures():
    # The canonical path targets with n <= 10 cover all five kinds and ten
    # LeftRight pivots. Each also runs reversed (v -> n-1-v), which swaps
    # Right and Left, so both closures get to decide the segmented form first.
    kinds = set()
    for g in enum_targets("path", 10):
        reversed_g = relabel(g, [g.n - 1 - v for v in range(g.n)])
        for pf in (path_form(g), path_form(reversed_g)):
            form = segmented_form(pf)
            assert form == _precedence_pick(ref_matching_kinds(pf))
            kinds.add(form.kind)
    assert len(kinds) == 5


def _mirror(f):
    """f with its positions reversed, i -> n - 1 - i."""
    n = len(f.order)
    return PathForm(f.order[::-1], _chord_rows(range(n), ((n - 1 - b, n - 1 - a) for a, b in chord_pairs(f))))


def test_row_kinds_match_the_segment_closures_up_to_128_vertices():
    # Seeded segmented paths, each also with one chord dropped, and random
    # paths of three chord densities, at n = 11, 20, ..., 128. Each form
    # also runs mirrored, which swaps Right and Left, so both closures get
    # to decide the segmented form first.
    rng = random.Random(37)
    kinds = set()
    compared = 0
    for n in range(11, 129, 9):
        graphs = [random_segmented_path(rng, n) for _ in range(2)]
        graphs.append(random_path_target(rng, n, rng.choice((0.02, 0.1, 0.3))))
        for g in graphs:
            pf = path_form(g)
            forms = [pf]
            bic = chord_pairs(pf)
            if bic:
                forms.append(PathForm(pf.order, _chord_rows(range(n), bic - {rng.choice(sorted(bic))})))
            for f in forms + [_mirror(f) for f in forms]:
                assert segmented_form(f) == _precedence_pick(ref_matching_kinds(f))
                kinds.add(segmented_form(f).kind)
                compared += 1
    assert compared > 120 and kinds == {RIGHT_SEGMENTED, LEFT_SEGMENTED, LEFT_RIGHT_SEGMENTED, NOT_SEGMENTED}


def _red_keys(g):
    return {u * g.n + v for u, v, c in g.edges if c is RED}


def test_forms_match_the_two_pass_reference_on_the_sweep():
    # Equality compares the class, order, sign and rows; the red steps,
    # which take no part in it, must be the red edges a form spans.
    for seed in (3, 4):
        count = 0
        for g in form_sweep(seed):
            f = separable._form(g)
            assert f == ref_form(g)
            assert f is not None and f.red == _red_keys(g)
            count += 1
        assert count == 39_542 + 10


@given(st.one_of(form_edge_case_st(), spine_graph_st()))
@settings(max_examples=300)
def test_forms_match_the_two_pass_reference_at_the_edges(g):
    f = separable._form(g)
    assert f == ref_form(g)
    if f is not None:
        assert f.red == _red_keys(g)
        assert repr(f) == repr(ref_form(g))


def test_forms_are_equal_under_switching():
    # Switching moves the red edges, which take no part in equality or the
    # hash, and leaves the order, sign and chord rows as they are.
    rng = random.Random(41)
    red_moved = 0
    for k in range(200):
        n = rng.randint(4, 40)
        if k % 2:
            form, g = path_form, random_path_target(rng, n, 0.2)
        else:
            form, g = cycle_form, random_cycle_target(rng, n + n % 2, 0.2)
        g = apply_switching(g, random_switching(rng, g.n))
        f, h = form(g), form(apply_switching(g, random_switching(rng, g.n)))
        assert f is not None and h == f and hash(h) == hash(f)
        red_moved += h.red != f.red
    assert red_moved > 150
