"""Dichotomy verdicts for path- and cycle-separable targets."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .sgcore import SignedGraph, Switching, _inverse, bipartition
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


def _chord_degrees(c: separable.CycleForm) -> List[int]:
    deg = [0] * len(c.order)
    for a, b in c.bic:
        deg[a] += 1
        deg[b] += 1
    return deg


def _alignments(c: separable.CycleForm, t: separable.CycleForm,
                twice: List[int]) -> Iterator[List[int]]:
    """The position maps img, in scan order, that send position i of c to
    position img[i] of t by one of the 2n rotations and reflections and the
    chords of c onto those of t. twice is t's chord-degree sequence written
    out twice, which rules maps out before any chord is looked up. The
    caller has matched the sizes, signs and chord counts."""
    n = len(c.order)
    deg = _chord_degrees(c)
    rev = deg[::-1]
    bic = t.bic
    for s in range(n):
        # Position i of c goes to position s + i, or s - i, of t (mod n).
        for step, seq, at in ((1, deg, s), (-1, rev, s + 1)):
            if twice[at : at + n] != seq:
                continue
            img = [(s + step * i) % n for i in range(n)]
            for a, b in c.bic:
                x, y = img[a], img[b]
                if ((x, y) if x < y else (y, x)) not in bic:
                    break
            else:
                yield img


# More than the templates a long run meets: H0, H1 and Hl(ell) for the
# thirty or so ell up to 61.
_TEMPLATES = 64


@functools.lru_cache(maxsize=_TEMPLATES)
def _template(kind: str, ell: Optional[int]):
    """Template kind (ell) as matching needs it, built once per (kind, ell):
    its CycleForm, its chord-degree sequence written out twice, its
    self-alignments (the maps of _alignments from the template onto itself,
    each kept as the template vertex that each position goes to) and its
    ordering. If img and img2 both align a target with the template, img2
    after the inverse of img maps the template's cycle and chords onto
    themselves, so one alignment and the self-alignments give them all."""
    t = targets.template_cycle_form(kind, ell)
    twice = _chord_degrees(t) * 2
    selves = tuple(tuple(t.order[i] for i in sigma) for sigma in _alignments(t, t, twice))
    return t, twice, selves, ordering_mod.ordering_for_cycle_target(kind, ell)


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
    t, twice, selves, _ = _template(kind, ell)
    if (len(c.order), c.cycle_sign, len(c.bic)) != (len(t.order), t.cycle_sign, len(t.bic)):
        return None
    img = next(_alignments(c, t, twice), None)
    if img is None:
        return None
    where = [img[i] for i in _inverse(c.order)]
    return min(tuple(map(at.__getitem__, where)) for at in selves)


def _classify_cycle(g: SignedGraph, c: separable.CycleForm) -> Verdict:
    n = g.n
    candidates = []
    if n == 4 and c.cycle_sign == "+":
        candidates.append((targets.H0, "MatchesH0", None))
    if n == 6 and c.cycle_sign == "-":
        candidates.append((targets.H1, "MatchesH1", None))
    # Hl(n - 3) is built only when its chord count matches.
    hl_chords = targets.template_pair_count(n - 3)
    if n >= 6 and n % 2 == 0 and c.cycle_sign == "+" and len(c.bic) == hl_chords:
        candidates.append((targets.HL, "MatchesHl(%d)" % (n - 3), n - 3))
    for kind, reason, ell in candidates:
        phi = _align(c, kind, ell)
        if phi is None:
            continue
        o = _template(kind, ell)[3]
        t = separable._semi_balancing(c) if c.cycle_sign == "+" else None
        return Verdict(POLYNOMIAL, reason, ordering=_pull_back(o, phi), switching=t)
    return Verdict(NP_COMPLETE, "NoTemplateMatch", witness=_witness(g))


def classify(g: SignedGraph) -> Verdict:
    """Full dichotomy dispatcher for separable targets. One pass over the
    edges finds the spanning path or cycle, whose position parity 2-colours
    g exactly when every bicoloured pair of positions is an odd distance
    apart and a cycle has even length. Only a graph with neither form takes
    the bipartition walk, to tell NonBipartite from a ValueError."""
    return _classify(g, separable._form(g))


def _classify(g: SignedGraph, f) -> Verdict:
    """classify's verdict on g, whose form _form gave as f."""
    if f is None:
        if bipartition(g) is None:
            return Verdict(NP_COMPLETE, "NonBipartite")
        raise ValueError("unicoloured edges form neither a spanning path nor cycle")
    path = isinstance(f, separable.PathForm)
    if not (path or g.n % 2 == 0) or any((b - a) % 2 == 0 for a, b in f.bic):
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
