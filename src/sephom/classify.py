"""Dichotomy verdicts for path- and cycle-separable targets."""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Dict, Iterator, List, Optional, Tuple

from .sgcore import SignedGraph, Switching, _bits, _inverse, bipartition
from . import ordering as ordering_mod
from . import separable
from . import targets
from . import witness as witness_mod
from .ordering import Ordering

POLYNOMIAL = "Polynomial"
NP_COMPLETE = "NPComplete"


@dataclass(frozen=True)
class Verdict:
    """A dichotomy verdict. On a template match the ordering is the
    template's own, pulled back through the alignment onto the template.
    A P verdict on a path or a "+" cycle also carries the switching that
    makes every unicoloured edge blue, read off the spanning walk; it takes
    no part in equality."""

    complexity: str
    reason: str
    witness: object = None
    ordering: Optional[Ordering] = None
    switching: Optional[Switching] = field(default=None, compare=False, repr=False)


def _witness(g: SignedGraph):
    # find_chain is a complete search, and the alternating 4-cycle and
    # 4-cycle pair shapes both extend to chains, so they need no finder.
    chain = witness_mod.find_chain(g)
    if chain is not None:
        return chain
    return witness_mod.find_invertible_pair(g)


def classify_path(g: SignedGraph) -> Verdict:
    """Dichotomy verdict for a path-separable target: classify's."""
    f = separable._form(g)
    if not isinstance(f, separable.PathForm):
        raise ValueError("unicoloured edges do not form a spanning path")
    return _classify(g, f)


def _pull_back(o: Ordering, phi: Tuple[int, ...]) -> Ordering:
    inv = _inverse(phi)
    return Ordering(
        black_order=tuple(inv[a] for a in o.black_order),
        white_order=tuple(inv[a] for a in o.white_order),
    )


def classify_cycle(g: SignedGraph) -> Verdict:
    """Dichotomy verdict for a cycle-separable target: classify's."""
    f = separable._form(g)
    if not isinstance(f, separable.CycleForm):
        raise ValueError("unicoloured edges do not form a spanning cycle")
    return _classify(g, f)


def _alignments(rows: Tuple[int, ...], t: Tuple[int, ...], rev: Tuple[int, ...],
                at_degree: Dict[int, List[int]]) -> Iterator[List[int]]:
    """The position maps img, in scan order, that send position i of a cycle
    with chord rows rows to position img[i] of a template's, by one of the
    2n rotations and reflections, and every chord onto one: each row,
    rotated, is the template row it lands on. t is the template's rows, rev
    the same reversed and at_degree the positions of each chord degree. The
    caller has matched the sizes and signs."""
    n = len(rows)
    full = (1 << n) - 1

    def holds(k: int, want: Tuple[int, ...]) -> bool:
        for r, w in zip(rows, want):
            if (r << k | r >> n - k) & full != w:
                return False
        return True

    first = rows[0]
    for s in at_degree.get(first.bit_count(), ()):
        # Position i goes to s + i of the template, its row rotated by s, or
        # to s - i (mod n), its row rotated by n - 1 - s against the
        # reversed rows. Row 0 alone rules most candidates out.
        if (first << s | first >> n - s) & full == t[s] and holds(s, t[s:] + t[:s]):
            yield list(range(s, n)) + list(range(s))
        k = n - 1 - s
        if (first << k | first >> n - k) & full == rev[s] and holds(k, rev[s::-1] + rev[:s:-1]):
            yield list(range(s, -1, -1)) + list(range(n - 1, s, -1))


# More than the templates a long run meets: H0, H1 and Hl(ell) for the
# thirty or so ell up to 61.
_TEMPLATES = 64
_Entry = namedtuple("_Entry", "form rev selves ordering at_degree uni bic")


@functools.lru_cache(maxsize=_TEMPLATES)
def _template(kind: str, ell: Optional[int]) -> _Entry:
    """Template kind (ell), built once per (kind, ell): its CycleForm, its
    rows reversed (bit j to n - 1 - j), its self-alignments (the maps of
    _alignments onto itself, as the template vertex each position goes to),
    its ordering, the positions of each chord degree, and its rank rows by
    place (_rank_rows' rows of the vertex at each place). If img and img2
    both align a target, img2 after the inverse of img is a self-alignment,
    so one alignment and the self-alignments give them all."""
    t = targets.template_cycle_form(kind, ell)
    n, rows = len(t.order), t.rows
    rev = tuple(int(format(r, "0%db" % n)[::-1], 2) for r in rows)
    at_degree: Dict[int, List[int]] = {}
    for i, r in enumerate(rows):
        at_degree.setdefault(r.bit_count(), []).append(i)
    selves = tuple(tuple(t.order[i] for i in img) for img in _alignments(rows, rows, rev, at_degree))
    o = ordering_mod.ordering_for_cycle_target(kind, ell)
    order = o.white_order + o.black_order
    place = _inverse(order)
    bit = [1 << place[v] for v in t.order]
    at = list(map(_inverse(t.order).__getitem__, order))
    uni = tuple(bit[i - 1] | bit[(i + 1) % n] for i in at)
    bic = tuple(sum(map(bit.__getitem__, _bits(rows[i]))) for i in at)
    return _Entry(t, rev, selves, o, at_degree, uni, bic)


def _align(c: separable.CycleForm, kind: str, ell: Optional[int]) -> Optional[Tuple[int, ...]]:
    """The least vertex bijection phi that maps the cycle of c onto the
    cycle of template kind (ell), by one of the 2n rotations and
    reflections, and the chords of c onto those of the template; absent when
    the sizes, signs or chords never agree. The scan stops at the first
    alignment whose chords all land: every other one is it followed by a
    self-alignment of the template (see _template), so phi is the least of
    those compositions.

    Switching fixes bicoloured edges and, on a spanning cycle, changes no
    sign, so these are exactly the bijections switching_equivalent accepts,
    and its search returns the least of them."""
    e = _template(kind, ell)
    if len(c.order) != len(e.rev) or c.cycle_sign != e.form.cycle_sign:
        return None
    img = next(_alignments(c.rows, e.form.rows, e.rev, e.at_degree), None)
    if img is None:
        return None
    where = list(map(img.__getitem__, _inverse(c.order)))
    return min(tuple(map(at.__getitem__, where)) for at in e.selves)


_MATCHED = {"MatchesH0": (targets.H0, None), "MatchesH1": (targets.H1, None)}


def _rank_table(g: SignedGraph, v: Verdict) -> Optional[tuple]:
    """ordering._rank_rows(g, v.ordering) for a verdict v of classify(g)
    that matches a template, else None: the ordering puts at each place the
    vertex aligned with the template's there, so the rows are the
    template's own. O(n), with no pass over g's edges."""
    if not v.reason.startswith("Matches"):
        return None
    e = _template(*_MATCHED.get(v.reason, (targets.HL, g.n - 3)))
    order = v.ordering.white_order + v.ordering.black_order
    place = _inverse(order)
    return order, place, [e.uni[r] for r in place], [e.bic[r] for r in place]


def _classify_cycle(g: SignedGraph, c: separable.CycleForm) -> Verdict:
    n = g.n
    candidates = []
    if n == 4 and c.cycle_sign == "+":
        candidates.append((targets.H0, "MatchesH0", None))
    if n == 6 and c.cycle_sign == "-":
        candidates.append((targets.H1, "MatchesH1", None))
    # Hl(n - 3) is built only when its chord count, half the row bits, matches.
    if n >= 6 and n % 2 == 0 and c.cycle_sign == "+" and (
            sum(map(int.bit_count, c.rows)) == 2 * targets.template_pair_count(n - 3)):
        candidates.append((targets.HL, "MatchesHl(%d)" % (n - 3), n - 3))
    for kind, reason, ell in candidates:
        phi = _align(c, kind, ell)
        if phi is None:
            continue
        o = _template(kind, ell).ordering
        t = separable._semi_balancing(c) if c.cycle_sign == "+" else None
        return Verdict(POLYNOMIAL, reason, ordering=_pull_back(o, phi), switching=t)
    return Verdict(NP_COMPLETE, "NoTemplateMatch", witness=_witness(g))


def classify(g: SignedGraph) -> Verdict:
    """Full dichotomy dispatcher for separable targets. One pass over the
    edges finds the spanning path or cycle, whose position parity 2-colours
    g exactly when every bicoloured pair of positions is an odd distance
    apart, so no chord row meets the positions of its own parity, and a
    cycle has even length. Only a graph with neither form takes the
    bipartition walk, to tell NonBipartite from a ValueError."""
    return _classify(g, separable._form(g))


def _classify(g: SignedGraph, f) -> Verdict:
    """classify's verdict on g, whose form _form gave as f."""
    if f is None:
        if bipartition(g) is None:
            return Verdict(NP_COMPLETE, "NonBipartite")
        raise ValueError("unicoloured edges form neither a spanning path nor cycle")
    path = isinstance(f, separable.PathForm)
    rows, (even, odd) = f.rows, separable._parities(g.n)
    # An odd distance joins positions of unlike parity.
    if not (path or g.n % 2 == 0) or (
            reduce(or_, rows[::2], 0) & even or reduce(or_, rows[1::2], 0) & odd):
        return Verdict(NP_COMPLETE, "NonBipartite")
    if not path:
        return _classify_cycle(g, f)
    form = separable.segmented_form(f)
    if form.kind != separable.NOT_SEGMENTED:
        return Verdict(
            POLYNOMIAL,
            "Segmented(%s)" % form.kind,
            ordering=ordering_mod.ordering_for_segmented(f, form),
            switching=separable._semi_balancing(f),
        )
    return Verdict(NP_COMPLETE, "NotSegmented", witness=_witness(g))


def verdict_dict(v: Verdict) -> dict:
    """JSON-ready form of a verdict."""
    return {
        "complexity": "P" if v.complexity == POLYNOMIAL else "NPC",
        "reason": v.reason,
        "witness": None if v.witness is None else witness_mod.witness_dict(v.witness),
        "ordering": None
        if v.ordering is None
        else {
            "white": list(v.ordering.white_order),
            "black": list(v.ordering.black_order),
        },
    }


__all__ = [
    "POLYNOMIAL",
    "NP_COMPLETE",
    "Verdict",
    "classify_path",
    "classify_cycle",
    "classify",
    "verdict_dict",
]
