"""Path/cycle separability, block and segment structure, segmented kinds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from .sgcore import BICOLOURED, RED, SignedGraph

LEFT = "Left"
RIGHT = "Right"

RIGHT_SEGMENTED = "RightSegmented"
LEFT_SEGMENTED = "LeftSegmented"
LEFT_RIGHT_SEGMENTED = "LeftRightSegmented"
TRIVIAL_PATH = "TrivialPath"
NOT_SEGMENTED = "NotSegmented"


@dataclass(frozen=True)
class PathForm:
    """Spanning unicoloured path: vertex order and the bicoloured edges as
    position pairs (a, b) with a < b. A switching making the path blue comes
    from is_semi_balanced, which a spanning path always is."""

    order: Tuple[int, ...]
    bic: FrozenSet[Tuple[int, int]]


@dataclass(frozen=True)
class CycleForm:
    """Spanning unicoloured cycle: cyclic vertex order, the switching-invariant
    cycle sign, and bicoloured edges as position pairs (a, b) with a < b."""

    order: Tuple[int, ...]
    cycle_sign: str
    bic: FrozenSet[Tuple[int, int]]


@dataclass(frozen=True)
class Segment:
    """Positions start..start+2j+1; blocks begin at start, start+2, ...
    Its leaning labels come from segment_leaning."""

    start: int
    j: int

    @property
    def end(self) -> int:
        return self.start + 2 * self.j + 1

    def forward_sources(self) -> List[int]:
        return [self.start + e for e in range(0, 2 * self.j - 1, 2)]

    def backward_sources(self) -> List[int]:
        return [self.start + o for o in range(3, 2 * self.j + 2, 2)]


@dataclass(frozen=True)
class SegmentedForm:
    kind: str
    pivot: Optional[Segment] = None


def _uni_adjacency(g: SignedGraph) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(g.n)]
    for u, v, c in g.edges:
        if c is not BICOLOURED:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _bic_positions(g: SignedGraph, order: Tuple[int, ...]) -> FrozenSet[Tuple[int, int]]:
    pos = {v: i for i, v in enumerate(order)}
    pairs = set()
    for u, v in g.bicoloured_edges():
        a, b = pos[u], pos[v]
        pairs.add((a, b) if a < b else (b, a))
    return frozenset(pairs)


def _trace(uni: List[List[int]], first: int) -> Tuple[int, ...]:
    """The walk along uni from first towards its least neighbour that never
    steps straight back, up to a vertex with no other neighbour or back at
    first."""
    order = [first, min(uni[first])]
    while True:
        nxt = [w for w in uni[order[-1]] if w != order[-2]]
        if not nxt or nxt[0] == first:
            return tuple(order)
        order.append(nxt[0])


def path_form(g: SignedGraph) -> Optional[PathForm]:
    """The spanning unicoloured path of g, if one exists.

    The orientation starting at the smaller endpoint is the canonical one.
    """
    if g.n == 0:
        return None
    uni = _uni_adjacency(g)
    if sum(len(a) for a in uni) != 2 * (g.n - 1):
        return None
    if g.n == 1:
        return PathForm((0,), _bic_positions(g, (0,)))
    ends = [v for v in range(g.n) if len(uni[v]) == 1]
    if len(ends) != 2 or any(len(a) > 2 for a in uni):
        return None
    # The walk from the end min(ends) stays on its path, so it stops only at
    # the far end.
    order = _trace(uni, min(ends))
    if len(order) != g.n:
        return None
    return PathForm(order, _bic_positions(g, order))


def cycle_form(g: SignedGraph) -> Optional[CycleForm]:
    """The spanning unicoloured cycle of g, if one exists.

    The canonical order starts at vertex 0 and proceeds towards the smaller
    of its two path neighbours.
    """
    if g.n < 3:
        return None
    uni = _uni_adjacency(g)
    if any(len(a) != 2 for a in uni):
        return None
    # Every vertex of a simple 2-regular graph lies on one cycle, so the walk
    # from 0 returns to 0; it spans g only when g is one cycle.
    order = _trace(uni, 0)
    if len(order) != g.n:
        return None
    bit = 0
    for i, u in enumerate(order):
        v = order[(i + 1) % g.n]
        bit ^= g.colour(u, v) is RED
    return CycleForm(order, "-" if bit else "+", _bic_positions(g, order))


def find_segments(p: PathForm) -> List[Segment]:
    """Maximal runs of blocks starting two apart, in increasing start order."""
    starts = sorted(i for i, j in p.bic if j == i + 3)
    segments: List[Segment] = []
    run: List[int] = []
    for i in starts:
        if run and i == run[-1] + 2:
            run.append(i)
        else:
            if run:
                segments.append(Segment(run[0], len(run)))
            run = [i]
    if run:
        segments.append(Segment(run[0], len(run)))
    return segments


def segment_leaning(p: PathForm, s: Segment) -> FrozenSet[str]:
    """Leaning labels: Right iff every forward source has every forward edge,
    Left iff every backward source has every backward edge."""
    if s not in find_segments(p):
        raise ValueError("not a segment of this path form")
    labels = set()
    if _forward_closure(s.forward_sources(), len(p.order)) <= p.bic:
        labels.add(RIGHT)
    if _backward_closure(s.backward_sources()) <= p.bic:
        labels.add(LEFT)
    return frozenset(labels)


def _forward_closure(starts: Iterable[int], n: int) -> set:
    """Every forward edge (f, t), t = f+3, f+5, ..., from each position f."""
    return {(f, t) for f in starts for t in range(f + 3, n, 2)}


def _backward_closure(ends: Iterable[int]) -> set:
    """Every backward edge (t, h), t = h-3, h-5, ..., into each position h."""
    return {(t, h) for h in ends for t in range(h - 3, -1, -2)}


def matching_kinds(p: PathForm) -> dict:
    """All segmented kinds whose mandated bicoloured set equals p.bic,
    mapped to the pivot segment where one applies. The Right and Left sets
    close over the block starts and ends (the segments' sources); only the
    LeftRight pivot loop reads the segments."""
    n = len(p.order)
    found = {}
    if not p.bic:
        found[TRIVIAL_PATH] = None
        return found
    starts = sorted(i for i, j in p.bic if j == i + 3)
    if any(b - a == 1 for a, b in zip(starts, starts[1:])):
        # Blocks at consecutive positions overlap in an alternating 4-cycle.
        return found
    if _forward_closure(starts, n) == p.bic:
        found[RIGHT_SEGMENTED] = None
    if _backward_closure(i + 3 for i in starts) == p.bic:
        found[LEFT_SEGMENTED] = None
    for pivot in find_segments(p):
        # Backward edges into the blocks up to the pivot's, forward edges
        # out of the blocks from the pivot's on, and every cross pair.
        mandated = _backward_closure(i + 3 for i in starts if i < pivot.end - 1)
        mandated |= _forward_closure((i for i in starts if i >= pivot.start), n)
        mandated |= {
            (src, tgt)
            for src in range(pivot.start - 2, -1, -2)
            for tgt in range(pivot.end + 2, n, 2)
        }
        if mandated == p.bic:
            found[LEFT_RIGHT_SEGMENTED] = pivot
            break
    return found


def segmented_form(p: PathForm) -> SegmentedForm:
    """The segmented kind whose mandated bicoloured edge set equals p.bic,
    with precedence TrivialPath, Right, Left, LeftRight; else NotSegmented."""
    kinds = matching_kinds(p)
    for kind in (TRIVIAL_PATH, RIGHT_SEGMENTED, LEFT_SEGMENTED):
        if kind in kinds:
            return SegmentedForm(kind)
    if LEFT_RIGHT_SEGMENTED in kinds:
        return SegmentedForm(LEFT_RIGHT_SEGMENTED, kinds[LEFT_RIGHT_SEGMENTED])
    return SegmentedForm(NOT_SEGMENTED)


__all__ = [
    "LEFT",
    "RIGHT",
    "RIGHT_SEGMENTED",
    "LEFT_SEGMENTED",
    "LEFT_RIGHT_SEGMENTED",
    "TRIVIAL_PATH",
    "NOT_SEGMENTED",
    "PathForm",
    "CycleForm",
    "Segment",
    "SegmentedForm",
    "path_form",
    "cycle_form",
    "find_segments",
    "segment_leaning",
    "matching_kinds",
    "segmented_form",
]
