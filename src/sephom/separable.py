"""Path/cycle separability, block and segment structure, segmented kinds."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import xor
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from .sgcore import BICOLOURED, RED, SignedGraph, Switching, _bits, _inverse

LEFT = "Left"
RIGHT = "Right"

RIGHT_SEGMENTED = "RightSegmented"
LEFT_SEGMENTED = "LeftSegmented"
LEFT_RIGHT_SEGMENTED = "LeftRightSegmented"
TRIVIAL_PATH = "TrivialPath"
NOT_SEGMENTED = "NotSegmented"


def _new(cls, **fields):
    """A cls instance holding fields as they are, with no __init__ run."""
    f = object.__new__(cls)
    f.__dict__.update(fields)
    return f


def _chord_rows(pos, pairs: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    """Rows with bits pos[u] and pos[v] joined for each pair (u, v)."""
    rows = [0] * len(pos)
    for u, v in pairs:
        a, b = pos[u], pos[v]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def _chord_pairs(f) -> FrozenSet[Tuple[int, int]]:
    """f's chords as position pairs (a, b) with a < b, read off its rows."""
    return frozenset((a, b) for a, r in enumerate(f._rows) for b in _bits(r >> a + 1 << a + 1))


@dataclass(frozen=True, init=False)
class PathForm:
    """Spanning unicoloured path: vertex order and the bicoloured edges as
    chord rows, bit j of _rows[i] set when one joins positions i and j; bic
    reads them as the position pairs (a, b) with a < b the constructor takes.
    red holds the red steps, keyed u * n + v with u < v, from which
    _semi_balancing reads a switching that makes the path blue; it takes no
    part in equality."""

    order: Tuple[int, ...]
    _rows: Tuple[int, ...]
    red: FrozenSet[int] = field(default=frozenset(), compare=False, repr=False)
    bic = property(_chord_pairs)

    def __init__(self, order, bic, red=frozenset()):
        self.__dict__.update(order=tuple(order), _rows=_chord_rows(range(len(order)), bic), red=red)


@dataclass(frozen=True, init=False)
class CycleForm:
    """Spanning unicoloured cycle: cyclic vertex order, the switching-invariant
    cycle sign, and the bicoloured and red edges as PathForm holds them."""

    order: Tuple[int, ...]
    cycle_sign: str
    _rows: Tuple[int, ...]
    red: FrozenSet[int] = field(default=frozenset(), compare=False, repr=False)
    bic = property(_chord_pairs)

    def __init__(self, order, cycle_sign, bic, red=frozenset()):
        rows = _chord_rows(range(len(order)), bic)
        self.__dict__.update(order=tuple(order), cycle_sign=cycle_sign, _rows=rows, red=red)


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
        return PathForm((0,), ()) if n else None
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
    rows, red = _chord_rows(_inverse(order), pairs), frozenset(red)
    if ends:
        return _new(PathForm, order=order, _rows=rows, red=red)
    return _new(CycleForm, order=order, cycle_sign="-" if len(red) & 1 else "+", _rows=rows, red=red)


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


@functools.lru_cache(maxsize=256)
def _parities(n: int) -> Tuple[int, int]:
    """The masks of the even and of the odd positions below n; the
    positions k, k + 2, ... below n are the one of k's parity >> k << k."""
    return (1 << (n + 1) // 2 * 2) // 3, (1 << n // 2 * 2) // 3 << 1


def _block_starts(rows: Tuple[int, ...]) -> List[int]:
    """The positions i with a chord to i + 3, in increasing order."""
    return [i for i, r in enumerate(rows) if r >> i + 3 & 1]


def find_segments(p: PathForm) -> List[Segment]:
    """Maximal runs of blocks starting two apart, in increasing start order."""
    segments: List[Segment] = []
    run: List[int] = []
    for i in _block_starts(p._rows):
        if run and i == run[-1] + 2:
            run.append(i)
        else:
            if run:
                segments.append(Segment(run[0], len(run)))
            run = [i]
    if run:
        segments.append(Segment(run[0], len(run)))
    return segments


def _held(rows: Tuple[int, ...], sources: Iterable[int], sinks: Iterable[int]) -> bool:
    """Whether each source f has every forward chord, to f + 3, f + 5, ...,
    and each sink h every backward one, from h - 3, h - 5, ...: one mask of
    positions of the other parity against each one's row."""
    par = _parities(len(rows))
    return all(not par[~f & 1] >> f + 3 << f + 3 & ~rows[f] for f in sources) and all(
        not par[~h & 1] & ((1 << h) - 1) >> 2 & ~rows[h] for h in sinks
    )


def segment_leaning(p: PathForm, s: Segment) -> FrozenSet[str]:
    """Leaning labels: Right iff every forward source has every forward edge,
    Left iff every backward source has every backward edge."""
    if s not in find_segments(p):
        raise ValueError("not a segment of this path form")
    labels = set()
    if _held(p._rows, s.forward_sources(), ()):
        labels.add(RIGHT)
    if _held(p._rows, (), s.backward_sources()):
        labels.add(LEFT)
    return frozenset(labels)


def _kinds(p: PathForm) -> Iterator[Tuple[str, Optional[Segment]]]:
    """Each segmented kind whose mandated bicoloured set equals p.bic, with
    its pivot segment where one applies, in the precedence order
    TrivialPath, Right, Left, LeftRight. A kind matches when p has as many
    chords as it mandates and every mandated one (_held), in O(n) big-int
    operations. The LeftRight pivot loop runs only when the caller asks
    past the kinds before it."""
    rows = p._rows
    twice = sum(map(int.bit_count, rows))
    if not twice:
        yield TRIVIAL_PATH, None
        return
    starts = _block_starts(rows)
    if any(b - a == 1 for a, b in zip(starts, starts[1:])):
        # Blocks at consecutive positions overlap in an alternating 4-cycle.
        return
    n = len(rows)
    ends = [i + 3 for i in starts]
    out = [(n - i - 2) // 2 for i in starts]  # the chords each closure holds
    into = [(h - 1) // 2 for h in ends]
    if 2 * sum(out) == twice and _held(rows, starts, ()):
        yield RIGHT_SEGMENTED, None
    if 2 * sum(into) == twice and _held(rows, (), ends):
        yield LEFT_SEGMENTED, None
    k = 0  # the pivot's first block start is starts[k]
    for pivot in find_segments(p):
        # Backward chords into the blocks up to the pivot's, forward chords
        # out of the blocks from the pivot's on, and every cross pair; the
        # first two share the j(j + 1)/2 chords among the pivot's own blocks.
        ps, pe, j = pivot.start, pivot.end, pivot.j
        cross = range(ps - 2, -1, -2)
        far = _parities(n)[pe & 1] >> pe + 2 << pe + 2
        count = sum(into[: k + j]) + sum(out[k:]) + len(cross) * far.bit_count() - j * (j + 1) // 2
        if 2 * count == twice and _held(rows, starts[k:], ends[: k + j]) and all(
            not far & ~rows[i] for i in cross
        ):
            yield LEFT_RIGHT_SEGMENTED, pivot
            return
        k += j


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
