"""Special min orderings: verification and construction for supported targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .sgcore import SignedGraph, _bits
from . import separable
from .separable import PathForm, SegmentedForm
from .targets import H0, H1, HL


@dataclass(frozen=True)
class Ordering:
    black_order: Tuple[int, ...]
    white_order: Tuple[int, ...]


def _check_classes(g: SignedGraph, o: Ordering) -> None:
    black, white = set(o.black_order), set(o.white_order)
    if len(black) != len(o.black_order) or len(white) != len(o.white_order):
        raise ValueError("ordering repeats a vertex")
    if black & white or black | white != set(range(g.n)):
        raise ValueError("ordering classes do not partition the vertices")
    for u, v, _ in g.edges:
        if (u in black) == (v in black):
            raise ValueError("edge inside an ordering class")


def verify_min_ordering(
    g: SignedGraph, o: Ordering
) -> Optional[Tuple[int, int, int, int]]:
    """First (x, x', y, y') by vertex id with x < x' white, y < y' black,
    xy' and x'y edges but xy a non-edge; absent when o is a min ordering.

    Each white vertex gets one row, its neighbours as bits by black rank.
    For a white pair x < x' the violating y are the bits of
    N(x') & ~N(x) below the last rank in N(x), so the scan costs O(|W|^2)
    big-int operations, plus O(m) for the rows and O(|B|) to name the
    reported tuple.
    """
    _check_classes(g, o)
    black = o.black_order
    rank_bit = {y: 1 << r for r, y in enumerate(black)}
    row = {}
    for x in o.white_order:
        bits = 0
        for y in _bits(g.adj_mask[x]):
            bits |= rank_bit[y]
        row[x] = bits
    place = {x: i for i, x in enumerate(o.white_order)}
    whites = sorted(o.white_order)
    for x in whites:
        nx = row[x]
        if not nx:
            continue
        # Black ranks missing from N(x) with a neighbour of x ranked later.
        gaps = ~nx & ((1 << (nx.bit_length() - 1)) - 1)
        for xp in whites:
            hit = row[xp] & gaps
            if hit and place[xp] > place[x]:
                y = min(black[r] for r in _bits(hit))
                later = nx & -(rank_bit[y] << 1)
                return (x, xp, y, min(black[r] for r in _bits(later)))
    return None


def verify_special(g: SignedGraph, o: Ordering) -> Optional[Tuple[int, int, int]]:
    """First (v, bicoloured nbr, unicoloured nbr) by vertex id where the
    bicoloured neighbour comes after the unicoloured one; absent when every
    vertex lists all bicoloured neighbours first.

    A vertex violates exactly when some bicoloured neighbour comes after its
    earliest unicoloured one, so the scan reads each edge O(1) times: O(m).
    """
    _check_classes(g, o)
    pos = [0] * g.n
    for order in (o.white_order, o.black_order):
        for i, v in enumerate(order):
            pos[v] = i
    for v in range(g.n):
        bic = g.bic_mask[v]
        uni = g.adj_mask[v] ^ bic
        if not bic or not uni:
            continue
        first_uni = min(pos[y] for y in _bits(uni))
        for x in _bits(bic):
            if pos[x] > first_uni:
                y = next(y for y in _bits(uni) if pos[y] < pos[x])
                return (v, x, y)
    return None


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
        if ell is None or ell < 3 or ell % 2 == 0:
            raise ValueError("Hl needs an odd count >= 3")
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
