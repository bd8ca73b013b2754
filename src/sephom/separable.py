"""Path/cycle separability, block and segment structure, segmented kinds."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import xor
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from .sgcore import BICOLOURED, RED, SignedGraph, Switching

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
    position pairs (a, b) with a < b. red holds the red steps, keyed
    u * n + v with u < v, from which _semi_balancing reads a switching that
    makes the path blue; it takes no part in equality."""

    order: Tuple[int, ...]
    bic: FrozenSet[Tuple[int, int]]
    red: FrozenSet[int] = field(default=frozenset(), compare=False, repr=False)


@dataclass(frozen=True)
class CycleForm:
    """Spanning unicoloured cycle: cyclic vertex order, the switching-invariant
    cycle sign, and bicoloured edges as position pairs (a, b) with a < b.
    red holds its red steps as PathForm's does."""

    order: Tuple[int, ...]
    cycle_sign: str
    bic: FrozenSet[Tuple[int, int]]
    red: FrozenSet[int] = field(default=frozenset(), compare=False, repr=False)


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


def _trace(uni: List[List[int]], first: int) -> Tuple[int, ...]:
    """The walk along uni from first towards its least neighbour that never
    steps straight back, up to a vertex with no other neighbour or back at
    first. Every vertex has one or two neighbours in uni."""
    order = [first]
    prev, v = first, min(uni[first])
    while v != first:
        order.append(v)
        if len(uni[v]) == 1:
            break
        a, b = uni[v]
        prev, v = v, b if a == prev else a
    return tuple(order)


def _form(g: SignedGraph) -> Union[PathForm, CycleForm, None]:
    """The PathForm or CycleForm of g, or None, from one pass over g.edges
    that collects the unicoloured neighbours, the red edges and the
    bicoloured pairs. Two ends of degree 1 and the rest of degree 2 make a
    path, walked from the least end; a 2-regular graph makes a cycle, walked
    from 0. Either spans g only when its walk reaches every vertex, and then
    a cycle holds every unicoloured edge, so its sign is the red parity. The
    red edges, keyed u * n + v, go on the form for _semi_balancing."""
    n = g.n
    if n < 2:
        return PathForm((0,), frozenset()) if n else None
    uni: List[List[int]] = [[] for _ in range(n)]
    red = []
    pairs = []
    for u, v, c in g.edges:
        if c is BICOLOURED:
            pairs.append((u, v))
        else:
            uni[u].append(v)
            uni[v].append(u)
            if c is RED:
                red.append(u * n + v)
    ends = [v for v in range(n) if len(uni[v]) != 2]
    if ends and [len(uni[v]) for v in ends] != [1, 1]:
        return None
    order = _trace(uni, ends[0] if ends else 0)
    if len(order) != n:
        return None
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bic = set()
    for u, v in pairs:
        a, b = pos[u], pos[v]
        bic.add((a, b) if a < b else (b, a))
    if ends:
        return PathForm(order, frozenset(bic), frozenset(red))
    return CycleForm(order, "-" if len(red) & 1 else "+", frozenset(bic), frozenset(red))


def _semi_balancing(f: Union[PathForm, CycleForm]) -> Switching:
    """The switching that makes every unicoloured edge of f's graph blue:
    the prefix parity of the red steps along f.order, whose first vertex
    stays. f is a path or a "+" cycle, whose closing step that parity fits."""
    order, n = f.order, len(f.order)
    steps = [(u * n + v if u < v else v * n + u) in f.red for u, v in zip(order, order[1:])]
    return Switching(compress(order[1:], accumulate(steps, xor)))


def path_form(g: SignedGraph) -> Optional[PathForm]:
    """The spanning unicoloured path of g, if one exists, found by the one
    pass over g.edges that also finds a spanning cycle.

    The orientation starting at the smaller endpoint is the canonical one.
    """
    f = _form(g)
    return f if isinstance(f, PathForm) else None


def cycle_form(g: SignedGraph) -> Optional[CycleForm]:
    """The spanning unicoloured cycle of g, if one exists, found by the one
    pass over g.edges that also finds a spanning path; its sign is the
    parity of g's red edges, which all lie on the cycle.

    The canonical order starts at vertex 0 and proceeds towards the smaller
    of its two path neighbours.
    """
    f = _form(g)
    return f if isinstance(f, CycleForm) else None


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


def _kinds(p: PathForm) -> Iterator[Tuple[str, Optional[Segment]]]:
    """Each segmented kind whose mandated bicoloured set equals p.bic, with
    its pivot segment where one applies, in the precedence order
    TrivialPath, Right, Left, LeftRight. The Right and Left sets close over
    the block starts and ends (the segments' sources) in O(n^2); only the
    LeftRight pivot loop reads the segments, O(segments * n^2), and it runs
    only when the caller asks past the kinds before it."""
    n = len(p.order)
    if not p.bic:
        yield TRIVIAL_PATH, None
        return
    starts = sorted(i for i, j in p.bic if j == i + 3)
    if any(b - a == 1 for a, b in zip(starts, starts[1:])):
        # Blocks at consecutive positions overlap in an alternating 4-cycle.
        return
    if _forward_closure(starts, n) == p.bic:
        yield RIGHT_SEGMENTED, None
    if _backward_closure(i + 3 for i in starts) == p.bic:
        yield LEFT_SEGMENTED, None
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
            yield LEFT_RIGHT_SEGMENTED, pivot
            return


def matching_kinds(p: PathForm) -> dict:
    """All segmented kinds whose mandated bicoloured set equals p.bic,
    mapped to the pivot segment where one applies."""
    return dict(_kinds(p))


def segmented_form(p: PathForm) -> SegmentedForm:
    """The segmented kind whose mandated bicoloured edge set equals p.bic,
    with precedence TrivialPath, Right, Left, LeftRight; else NotSegmented.
    The first kind that matches decides, so the LeftRight pivot loop runs
    only when neither closure matches."""
    return SegmentedForm(*next(_kinds(p), (NOT_SEGMENTED, None)))


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
