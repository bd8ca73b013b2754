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

    White is the class of the path's first vertex. Each class splits at a
    cut: two past the pivot's start for LeftRight, 0 for Right, n for Left
    and TrivialPath. Before the cut it lists the block ends last to first,
    then the rest in path order; from the cut on, the block starts in path
    order, then the rest last to first. The class of the cut's parity puts
    its part before the cut first, the other class its part from the cut on.
    """
    n = len(p.order)
    if f.kind == separable.LEFT_RIGHT_SEGMENTED:
        if f.pivot is None:
            raise ValueError("LeftRightSegmented form lacks its pivot")
        cut = f.pivot.start + 2
    elif f.kind in (separable.RIGHT_SEGMENTED, separable.LEFT_SEGMENTED, separable.TRIVIAL_PATH):
        cut = 0 if f.kind == separable.RIGHT_SEGMENTED else n
    else:
        raise ValueError("no ordering for kind %r" % f.kind)
    # Segments tile the block starts, so the segments' forward sources are
    # the block starts and their backward sources the block ends.
    forward = set(separable._block_starts(p._rows))
    backward = {i + 3 for i in forward}

    def arrange(parity: int) -> Tuple[int, ...]:
        cls = range(parity, n, 2)
        head = [i for i in reversed(cls) if i < cut and i in backward]
        head += [i for i in cls if i < cut and i not in backward]
        tail = [i for i in cls if i >= cut and i in forward]
        tail += [i for i in reversed(cls) if i >= cut and i not in forward]
        return tuple(p.order[i] for i in (head + tail if parity == cut % 2 else tail + head))

    return Ordering(black_order=arrange(1), white_order=arrange(0))


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
    "Ordering",
    "verify_min_ordering",
    "verify_special",
    "ordering_for_segmented",
    "ordering_for_cycle_target",
]
