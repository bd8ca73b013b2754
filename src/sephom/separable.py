"""Path/cycle separability, block and segment structure, segmented kinds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .sgcore import BICOLOURED, RED, SignedGraph, Switching, _switching

LEFT = "Left"
RIGHT = "Right"

RIGHT_SEGMENTED = "RightSegmented"
LEFT_SEGMENTED = "LeftSegmented"
LEFT_RIGHT_SEGMENTED = "LeftRightSegmented"
TRIVIAL_PATH = "TrivialPath"
NOT_SEGMENTED = "NotSegmented"


@dataclass(frozen=True)
class PathForm:
    """Spanning unicoloured path: vertex order, a switching making the path
    blue, and the bicoloured edges as position pairs (a, b) with a < b."""

    order: Tuple[int, ...]
    normalizer: Switching
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
    """Positions start..start+2j+1; blocks begin at start, start+2, ..."""

    start: int
    j: int
    leaning: FrozenSet[str]

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
        return PathForm((0,), Switching(), _bic_positions(g, (0,)))
    ends = [v for v in range(g.n) if len(uni[v]) == 1]
    if len(ends) != 2 or any(len(a) > 2 for a in uni):
        return None
    order = [min(ends)]
    prev = -1
    while len(uni[order[-1]]) > 0:
        nxt = [w for w in uni[order[-1]] if w != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    if len(order) != g.n:
        return None
    order_t = tuple(order)
    normalizer = _switching(
        g, ((u, v, g.colour(u, v) is RED) for u, v in zip(order, order[1:])), order_t
    )
    return PathForm(order_t, normalizer, _bic_positions(g, order_t))


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
    order = [0, min(uni[0])]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = [w for w in uni[cur] if w != prev]
        if nxt[0] == 0:
            break
        order.append(nxt[0])
        if len(order) > g.n:
            return None
    if len(order) != g.n:
        return None
    bit = 0
    for i, u in enumerate(order):
        v = order[(i + 1) % g.n]
        bit ^= g.colour(u, v) is RED
    order_t = tuple(order)
    return CycleForm(order_t, "-" if bit else "+", _bic_positions(g, order_t))


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
                segments.append(Segment(run[0], len(run), frozenset()))
            run = [i]
    if run:
        segments.append(Segment(run[0], len(run), frozenset()))
    return [Segment(s.start, s.j, _leaning(p, s)) for s in segments]


def segment_leaning(p: PathForm, s: Segment) -> FrozenSet[str]:
    """Leaning labels: Right iff every forward source has every forward edge,
    Left iff every backward source has every backward edge."""
    if not any(t.start == s.start and t.j == s.j for t in find_segments(p)):
        raise ValueError("not a segment of this path form")
    return _leaning(p, s)


def _leaning(p: PathForm, s: Segment) -> FrozenSet[str]:
    n = len(p.order)
    labels = set()
    if all(
        (f, t) in p.bic
        for f in s.forward_sources()
        for t in range(f + 3, n, 2)
    ):
        labels.add(RIGHT)
    if all(
        (t, h) in p.bic
        for h in s.backward_sources()
        for t in range(h - 3, -1, -2)
    ):
        labels.add(LEFT)
    return frozenset(labels)


def _forward_closure(s: Segment, n: int) -> set:
    return {(f, t) for f in s.forward_sources() for t in range(f + 3, n, 2)}


def _backward_closure(s: Segment) -> set:
    return {(t, h) for h in s.backward_sources() for t in range(h - 3, -1, -2)}


def matching_kinds(p: PathForm) -> dict:
    """All segmented kinds whose mandated bicoloured set equals p.bic,
    mapped to the pivot segment where one applies."""
    n = len(p.order)
    found = {}
    if not p.bic:
        found[TRIVIAL_PATH] = None
        return found
    segments = find_segments(p)
    if not segments:
        return found
    starts = sorted(i for i, j in p.bic if j == i + 3)
    if any(b - a == 1 for a, b in zip(starts, starts[1:])):
        # Blocks at consecutive positions overlap in an alternating 4-cycle.
        return found
    right = set().union(*(_forward_closure(s, n) for s in segments))
    if right == p.bic:
        found[RIGHT_SEGMENTED] = None
    left = set().union(*(_backward_closure(s) for s in segments))
    if left == p.bic:
        found[LEFT_SEGMENTED] = None
    for pivot in segments:
        mandated = set()
        for s in segments:
            if s.start <= pivot.start:
                mandated |= _backward_closure(s)
            if s.start >= pivot.start:
                mandated |= _forward_closure(s, n)
        mandated |= {
            (src, tgt)
            for src in range(pivot.start - 2, -1, -2)
            for tgt in range(pivot.end + 2, n, 2)
        }
        if mandated == p.bic and LEFT_RIGHT_SEGMENTED not in found:
            found[LEFT_RIGHT_SEGMENTED] = pivot
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
