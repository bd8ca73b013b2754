"""Dichotomy verdicts for path- and cycle-separable targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .sgcore import SignedGraph, bipartition, switching_equivalent
from . import ordering as ordering_mod
from . import separable
from . import targets
from . import witness as witness_mod
from .ordering import Ordering

POLYNOMIAL = "Polynomial"
NP_COMPLETE = "NPComplete"


@dataclass(frozen=True)
class Verdict:
    complexity: str
    reason: str
    witness: object = None
    ordering: Optional[Ordering] = None


def _path_witness(g: SignedGraph):
    # find_chain is a complete search, and the alternating 4-cycle and
    # 4-cycle pair shapes both extend to chains, so their finders add nothing.
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
    return Verdict(NP_COMPLETE, "NotSegmented", witness=_path_witness(g))


def _pull_back(o: Ordering, phi: Tuple[int, ...]) -> Ordering:
    inv = [0] * len(phi)
    for v, image in enumerate(phi):
        inv[image] = v
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


def _classify_cycle(g: SignedGraph, c: separable.CycleForm) -> Verdict:
    n = g.n
    candidates = []
    if n == 4 and c.cycle_sign == "+":
        candidates.append((targets.build_h0(), "MatchesH0", ordering_mod.H0, None))
    if n == 6 and c.cycle_sign == "-":
        candidates.append((targets.build_h1(), "MatchesH1", ordering_mod.H1, None))
    if n >= 6 and n % 2 == 0 and c.cycle_sign == "+":
        ell = n - 3
        candidates.append(
            (targets.build_hl(ell), "MatchesHl(%d)" % ell, ordering_mod.HL, ell)
        )
    for target, reason, kind, ell in candidates:
        found = switching_equivalent(g, target)
        if found is None:
            continue
        phi, _ = found
        o = ordering_mod.ordering_for_cycle_target(kind, ell)
        return Verdict(POLYNOMIAL, reason, ordering=_pull_back(o, phi))
    return Verdict(
        NP_COMPLETE, "NoTemplateMatch", witness=witness_mod.find_chain(g)
    )


def classify(g: SignedGraph) -> Verdict:
    """Full dichotomy dispatcher for separable targets."""
    if bipartition(g) is None:
        return Verdict(NP_COMPLETE, "NonBipartite")
    p = separable.path_form(g)
    if p is not None:
        return _classify_path(g, p)
    c = separable.cycle_form(g)
    if c is not None:
        return _classify_cycle(g, c)
    raise ValueError("unicoloured edges form neither a spanning path nor cycle")


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
