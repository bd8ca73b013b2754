"""Special min orderings: verification and construction for supported targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .sgcore import BICOLOURED, SignedGraph, _bits, _inverse
from . import separable
from .separable import PathForm, SegmentedForm
from .targets import H0, H1, HL, _check_odd


@dataclass(frozen=True)
class Ordering:
    black_order: Tuple[int, ...]
    white_order: Tuple[int, ...]


def _rank_rows(
    g: SignedGraph, o: Ordering
) -> Tuple[Tuple[int, ...], List[int], List[int], List[int]]:
    """order, the whites then the blacks; place, its inverse; and each
    vertex's unicoloured and bicoloured neighbours as bit rows over their
    places. One pass over the edges, which also checks that every edge
    crosses the classes; O(n + m) big-int operations."""
    black, white = set(o.black_order), set(o.white_order)
    if len(black) != len(o.black_order) or len(white) != len(o.white_order):
        raise ValueError("ordering repeats a vertex")
    if black & white or black | white != set(range(g.n)):
        raise ValueError("ordering classes do not partition the vertices")
    order = o.white_order + o.black_order
    place = _inverse(order)
    nw = len(o.white_order)
    bit = [1 << i for i in place]
    uni, bic = [0] * g.n, [0] * g.n
    for u, v, c in g.edges:
        if (place[u] < nw) == (place[v] < nw):
            raise ValueError("edge inside an ordering class")
        rows = bic if c is BICOLOURED else uni
        rows[u] |= bit[v]
        rows[v] |= bit[u]
    return order, place, uni, bic


def _gaps(row: int) -> int:
    """Places missing from row below its last place."""
    return ~row & ((1 << (row.bit_length() - 1)) - 1)


def _min_violator(o: Ordering, uni: List[int], bic: List[int]) -> Optional[int]:
    """The least white x by id with a later white x' adjacent to a black
    place in gaps(x): the union of the rows of the whites after x, kept
    while walking the whites backwards, meets gaps(x) (those rows hold only
    black places). O(|W|) big-int operations."""
    later = 0
    least = None
    for x in reversed(o.white_order):
        nx = uni[x] | bic[x]
        if nx and later & _gaps(nx) and (least is None or x < least):
            least = x
        later |= nx
    return least


def _special_violator(uni: List[int], bic: List[int]) -> Optional[int]:
    """The least vertex with a bicoloured neighbour placed after its first
    unicoloured one: a bit of its bicoloured row above the lowest bit of its
    unicoloured row. O(n) big-int operations."""
    for v, u in enumerate(uni):
        if u and bic[v] & -((u & -u) << 1):
            return v
    return None


def verify_min_ordering(
    g: SignedGraph, o: Ordering
) -> Optional[Tuple[int, int, int, int]]:
    """First (x, x', y, y') by vertex id with x < x' white, y < y' black,
    xy' and x'y edges but xy a non-edge; absent when o is a min ordering.

    The rank-row table costs O(n + m) and the scan for the least violating
    x O(|W|) big-int operations. Only when the scan finds one are the rest
    named: x' is the least white by id after x whose row meets gaps(x),
    O(|W| + |B|).
    """
    order, place, uni, bic = _rank_rows(g, o)
    x = _min_violator(o, uni, bic)
    if x is None:
        return None
    nx = uni[x] | bic[x]
    gaps = _gaps(nx)
    xp = min(w for w in o.white_order[place[x] + 1 :] if (uni[w] | bic[w]) & gaps)
    y = min(order[r] for r in _bits((uni[xp] | bic[xp]) & gaps))
    later = nx & -(1 << (place[y] + 1))
    return (x, xp, y, min(order[r] for r in _bits(later)))


def verify_special(g: SignedGraph, o: Ordering) -> Optional[Tuple[int, int, int]]:
    """First (v, bicoloured nbr, unicoloured nbr) by vertex id where the
    bicoloured neighbour comes after the unicoloured one; absent when every
    vertex lists all bicoloured neighbours first.

    The rank-row table costs O(n + m) and the scan for the least violating
    v O(n) big-int operations; naming its two neighbours costs O(deg v).
    """
    order, place, uni, bic = _rank_rows(g, o)
    v = _special_violator(uni, bic)
    if v is None:
        return None
    u = uni[v]
    x = min(order[r] for r in _bits(bic[v] & -((u & -u) << 1)))
    y = min(order[r] for r in _bits(u & ((1 << place[x]) - 1)))
    return (v, x, y)


def ordering_for_segmented(p: PathForm, f: SegmentedForm) -> Ordering:
    """Special min ordering for a segmented path target.

    White is the class of the path's first vertex; ties keep path order.
    """
    n = len(p.order)
    evens = list(range(0, n, 2))
    odds = list(range(1, n, 2))
    # Segments tile the block starts, so the segments' forward sources are
    # the block starts and their backward sources the block ends.
    forward = {i for i, j in p.bic if j == i + 3}
    backward = {i + 3 for i in forward}

    def right_recipe(cls: List[int]) -> List[int]:
        src = [i for i in cls if i in forward]
        rest = [i for i in cls if i not in forward]
        return src + rest[::-1]

    def left_recipe(cls: List[int]) -> List[int]:
        src = [i for i in cls if i in backward]
        rest = [i for i in cls if i not in backward]
        return src[::-1] + rest

    if f.kind == separable.TRIVIAL_PATH:
        white, black = evens, odds
    elif f.kind == separable.RIGHT_SEGMENTED:
        white, black = right_recipe(evens), right_recipe(odds)
    elif f.kind == separable.LEFT_SEGMENTED:
        white, black = left_recipe(evens), left_recipe(odds)
    elif f.kind == separable.LEFT_RIGHT_SEGMENTED:
        pivot = f.pivot
        if pivot is None:
            raise ValueError("LeftRightSegmented form lacks its pivot")
        u_side = set(range(0, pivot.start + 2))

        def halves(cls: List[int]) -> Tuple[List[int], List[int]]:
            ul = [i for i in cls if i in u_side and i in backward]
            un = [i for i in cls if i in u_side and i not in backward]
            vr = [i for i in cls if i not in u_side and i in forward]
            vn = [i for i in cls if i not in u_side and i not in forward]
            return ul[::-1] + un, vr + vn[::-1]

        (wu, wv), (bu, bv) = halves(evens), halves(odds)
        # The pivot's class puts its u side first, the other class its v side.
        if pivot.start % 2 == 0:
            white, black = wu + wv, bv + bu
        else:
            white, black = wv + wu, bu + bv
    else:
        raise ValueError("no ordering for kind %r" % f.kind)

    return Ordering(
        black_order=tuple(p.order[i] for i in black),
        white_order=tuple(p.order[i] for i in white),
    )


def ordering_for_cycle_target(kind: str, ell: Optional[int] = None) -> Ordering:
    """Special min ordering for the canonical cycle targets (targets.py ids)."""
    if kind == H0:
        return Ordering(black_order=(1, 3), white_order=(0, 2))
    if kind == H1:
        return Ordering(black_order=(3, 1, 4), white_order=(0, 2, 5))
    if kind == HL:
        _check_odd(ell, 3)
        white = tuple(range(0, ell, 2)) + (ell + 2,)
        black = tuple(range(ell, 0, -2)) + (ell + 1,)
        return Ordering(black_order=black, white_order=white)
    raise ValueError("unknown target kind %r" % kind)


__all__ = [
    "H0",
    "H1",
    "HL",
    "Ordering",
    "verify_min_ordering",
    "verify_special",
    "ordering_for_segmented",
    "ordering_for_cycle_target",
]
