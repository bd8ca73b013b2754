"""The quadruple-relation CSP, its gadget, and the compiled reduction."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .sgcore import BLUE, RED, SignedGraph, _probe_count, walk_sign
from .solver import Gf2System, Instance, gf2_solve
from .targets import _check_odd


def quad_relation(a: int, b: int, c: int, d: int) -> bool:
    """(a = b = c = d) or (a != c)."""
    return (a == b == c == d) or (a != c)


@dataclass(frozen=True)
class QuadCsp:
    vars: Tuple[str, ...]
    quads: Tuple[Tuple[str, str, str, str], ...]

    def __init__(self, vars: Iterable[str], quads: Iterable[Tuple[str, ...]]):
        names = tuple(vars)
        declared = set(names)
        if len(declared) != len(names):
            raise ValueError("duplicate variable name")
        fixed = []
        for q in quads:
            t = tuple(q)
            if len(t) != 4:
                raise ValueError("quadruple of length %d" % len(t))
            for name in t:
                if name not in declared:
                    raise ValueError("undeclared variable %r" % name)
            fixed.append(t)
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "quads", tuple(fixed))


def csp_solve(csp: QuadCsp) -> Optional[Dict[str, int]]:
    """First satisfying assignment by exhaustive enumeration, or absent."""
    k = len(csp.vars)
    idx = {r: i for i, r in enumerate(csp.vars)}
    for bits in range(1 << k):
        ok = True
        for a, b, c, d in csp.quads:
            if not quad_relation(
                bits >> idx[a] & 1,
                bits >> idx[b] & 1,
                bits >> idx[c] & 1,
                bits >> idx[d] & 1,
            ):
                ok = False
                break
        if ok:
            return {r: bits >> i & 1 for r, i in idx.items()}
    return None


@dataclass(frozen=True)
class Gadget:
    """One quadruple's gadget: spine a=p0..p_ell=c with pendants b, d."""

    graph: SignedGraph
    lists: Tuple[FrozenSet[int], ...]
    a: int
    b: int
    c: int
    d: int


@functools.lru_cache(maxsize=None)
def build_gadget(ell: int) -> Gadget:
    """Gadget fixed by one table of six (walk, bit) constraints, each
    asking the walk to have sign - exactly when bit is 1. The edge signs are
    solved over GF(2) from the walks' edges, one variable per edge (spine,
    then the pendants to b and d), and the walks are then re-checked by
    walk_sign; ValueError when either step fails. Built once per ell: the
    gadget is immutable, and a failed build is not cached."""
    _check_odd(ell, 5)
    _probe_count(ell + 3)
    b_at, d_at = 3, ell - 3
    b, d = ell + 1, ell + 2
    pairs = [(i - 1, i) for i in range(1, ell + 1)] + [(b_at, b), (d_at, d)]

    def spine(x: int, y: int) -> List[int]:
        step = 1 if y >= x else -1
        return list(range(x, y + step, step))

    table = [
        (spine(0, b_at) + [b], 0),
        (spine(ell, d_at) + [d], 0),
        (spine(0, ell), 1),
        (spine(0, d_at) + [d], 1),
        ([b] + spine(b_at, ell), 1),
        ([b] + spine(b_at, d_at) + [d], 1),
    ]
    equations = [
        ([(min(u, v), max(u, v)) for u, v in zip(walk, walk[1:])], bit) for walk, bit in table
    ]
    sol = gf2_solve(Gf2System(pairs, equations))
    if sol is None:
        raise ValueError("the gadget's path-sign system has no solution")
    graph = SignedGraph(ell + 3, [(u, v, RED if sol[u, v] else BLUE) for u, v in pairs])
    for walk, bit in table:
        if walk_sign(graph, walk) != "+-"[bit]:
            raise ValueError("gadget walk %s has the wrong sign" % walk)

    # a and b share one frozenset {0}, and c and d one frozenset {ell}.
    first, last = frozenset((0,)), frozenset((ell,))
    inner = (frozenset((i, b if i % 2 else d)) for i in range(1, ell))
    lists = (first, *inner, last, first, last)
    return Gadget(graph=graph, lists=lists, a=0, b=b, c=ell, d=d)


def build_reduction(csp: QuadCsp, ell: int) -> Instance:
    """Instance against the unbalanced cycle target with n = ell + 3: one
    gadget per quadruple, occurrence links per shared variable. Every edge
    key and list value is made valid here, so the instance goes through the
    trusted constructors unchecked; equal lists are one frozenset."""
    _check_odd(ell, 5)
    gadget = build_gadget(ell)
    lists: List[FrozenSet[int]] = []
    left: Dict[str, List[int]] = {}
    right: Dict[str, List[int]] = {}
    for qa, qb, qc, qd in csp.quads:
        base = len(lists)
        lists.extend(gadget.lists)
        left.setdefault(qa, []).append(base + gadget.a)
        left.setdefault(qb, []).append(base + gadget.b)
        right.setdefault(qc, []).append(base + gadget.c)
        right.setdefault(qd, []).append(base + gadget.d)
    # An edge u-v with u < v is keyed u * n + v, so the linking vertices
    # are counted before any key is written.
    n = len(lists)
    for r in csp.vars:
        occ_l, occ_r = left.get(r, ()), right.get(r, ())
        n += (len(occ_l) >= 2) + (len(occ_r) >= 2) + (ell - 1 if occ_l and occ_r else 0)
    step = gadget.graph.n * (n + 1)  # the shift of a key from one gadget to the next
    spread = [(u * n + v, c) for u, v, c in gadget.graph.edges]
    keyed = {shift + k: c for shift in range(0, len(csp.quads) * step, step) for k, c in spread}
    point = [frozenset((i,)) for i in range(ell)]  # one shared list {i} per i
    # A linking vertex is new, so it is the larger end of each edge it gets,
    # except the last edge of a linking path, whose key is flipped.
    for r in csp.vars:
        occ_l = left.get(r, [])
        occ_r = right.get(r, [])
        for occ, i in ((occ_l, 1), (occ_r, ell - 1)):
            if len(occ) >= 2:
                x = len(lists)
                lists.append(point[i])
                for o in occ:
                    keyed[o * n + x] = BLUE
        if occ_l and occ_r:
            u = occ_l[0]
            for v in range(len(lists), len(lists) + ell - 1):
                keyed[u * n + v] = BLUE
                u = v
            keyed[occ_r[0] * n + u] = BLUE
            lists.extend(point[1:])
    return Instance._checked(SignedGraph._checked(n, keyed), tuple(lists))


__all__ = [
    "quad_relation",
    "QuadCsp",
    "csp_solve",
    "Gadget",
    "build_gadget",
    "build_reduction",
]
