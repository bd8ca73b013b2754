"""Dichotomy verdicts for path- and cycle-separable targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .sgcore import SignedGraph, _inverse, bipartition
from . import ordering as ordering_mod
from . import separable
from . import targets
from . import witness as witness_mod
from .ordering import Ordering

POLYNOMIAL = "Polynomial"
NP_COMPLETE = "NPComplete"


@dataclass(frozen=True)
class Verdict:
    """A dichotomy verdict. phi, set on template matches only, is the least
    vertex bijection onto the template that a switching completes."""

    complexity: str
    reason: str
    witness: object = None
    ordering: Optional[Ordering] = None
    phi: Optional[Tuple[int, ...]] = None


def _witness(g: SignedGraph):
    # find_chain is a complete search, and the alternating 4-cycle and
    # 4-cycle pair shapes both extend to chains, so they need no finder.
    chain = witness_mod.find_chain(g)
    if chain is not None:
        return chain
    return witness_mod.find_invertible_pair(g)


def classify_path(g: SignedGraph) -> Verdict:
    """Dichotomy verdict for a path-separable target."""
    p = separable.path_form(g)
    if p is None:
        raise ValueError("unicoloured edges do not form a spanning path")
    return _classify_path(g, p)


def _classify_path(g: SignedGraph, p: separable.PathForm) -> Verdict:
    form = separable.segmented_form(p)
    if form.kind != separable.NOT_SEGMENTED:
        return Verdict(
            POLYNOMIAL,
            "Segmented(%s)" % form.kind,
            ordering=ordering_mod.ordering_for_segmented(p, form),
        )
    return Verdict(NP_COMPLETE, "NotSegmented", witness=_witness(g))


def _pull_back(o: Ordering, phi: Tuple[int, ...]) -> Ordering:
    inv = _inverse(phi)
    return Ordering(
        black_order=tuple(inv[a] for a in o.black_order),
        white_order=tuple(inv[a] for a in o.white_order),
    )


def classify_cycle(g: SignedGraph) -> Verdict:
    """Dichotomy verdict for a cycle-separable target."""
    c = separable.cycle_form(g)
    if c is None:
        raise ValueError("unicoloured edges do not form a spanning cycle")
    return _classify_cycle(g, c)


def _chord_degrees(c: separable.CycleForm) -> List[int]:
    deg = [0] * len(c.order)
    for a, b in c.bic:
        deg[a] += 1
        deg[b] += 1
    return deg


def _align(c: separable.CycleForm, t: separable.CycleForm) -> Optional[Tuple[int, ...]]:
    """The least vertex bijection phi that maps the cycle of c onto the
    cycle of t, by one of the 2n rotations and reflections, and the chords
    of c onto those of t; absent when the sizes, signs or chords never
    agree.

    Switching fixes bicoloured edges and, on a spanning cycle, changes no
    sign, so these are exactly the bijections switching_equivalent accepts,
    and its search returns the least of them."""
    n = len(c.order)
    if (n, c.cycle_sign, len(c.bic)) != (len(t.order), t.cycle_sign, len(t.bic)):
        return None
    deg = _chord_degrees(c)
    rev = deg[::-1]
    twice = _chord_degrees(t) * 2
    chords = t.bic | {(b, a) for a, b in t.bic}
    best = None
    for s in range(n):
        # Position i of c goes to position s + i, or s - i, of t (mod n).
        for step, seq, at in ((1, deg, s), (-1, rev, s + 1)):
            if twice[at : at + n] != seq:
                continue
            img = [(s + step * i) % n for i in range(n)]
            if all((img[a], img[b]) in chords for a, b in c.bic):
                phi = [0] * n
                for i, v in enumerate(c.order):
                    phi[v] = t.order[img[i]]
                if best is None or tuple(phi) < best:
                    best = tuple(phi)
    return best


def _classify_cycle(g: SignedGraph, c: separable.CycleForm) -> Verdict:
    n = g.n
    candidates = []
    if n == 4 and c.cycle_sign == "+":
        candidates.append((targets.H0, "MatchesH0", None))
    if n == 6 and c.cycle_sign == "-":
        candidates.append((targets.H1, "MatchesH1", None))
    if n >= 6 and n % 2 == 0 and c.cycle_sign == "+":
        candidates.append((targets.HL, "MatchesHl(%d)" % (n - 3), n - 3))
    for kind, reason, ell in candidates:
        phi = _align(c, targets.template_cycle_form(kind, ell))
        if phi is None:
            continue
        o = ordering_mod.ordering_for_cycle_target(kind, ell)
        return Verdict(POLYNOMIAL, reason, ordering=_pull_back(o, phi), phi=phi)
    return Verdict(NP_COMPLETE, "NoTemplateMatch", witness=_witness(g))


def classify(g: SignedGraph) -> Verdict:
    """Full dichotomy dispatcher for separable targets. One pass over the
    edges finds the spanning path or cycle, whose position parity 2-colours
    g exactly when every bicoloured pair of positions is an odd distance
    apart and a cycle has even length. Only a graph with neither form takes
    the bipartition walk, to tell NonBipartite from a ValueError."""
    f = separable._form(g)
    if f is None:
        if bipartition(g) is None:
            return Verdict(NP_COMPLETE, "NonBipartite")
        raise ValueError("unicoloured edges form neither a spanning path nor cycle")
    path = isinstance(f, separable.PathForm)
    if not (path or g.n % 2 == 0) or any((b - a) % 2 == 0 for a, b in f.bic):
        return Verdict(NP_COMPLETE, "NonBipartite")
    return _classify_path(g, f) if path else _classify_cycle(g, f)


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
