"""The quadruple-relation CSP, its gadget, and the compiled reduction."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .sgcore import BLUE, RED, SignedGraph, walk_sign
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
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name")
        fixed = []
        for q in quads:
            t = tuple(q)
            if len(t) != 4:
                raise ValueError("quadruple of length %d" % len(t))
            for name in t:
                if name not in names:
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

    lists: List[FrozenSet[int]] = []
    for i in range(ell + 1):
        if i in (0, ell):
            lists.append(frozenset((i,)))
        else:
            lists.append(frozenset((i, b if i % 2 else d)))
    lists.append(frozenset((0,)))
    lists.append(frozenset((ell,)))
    return Gadget(graph=graph, lists=tuple(lists), a=0, b=b, c=ell, d=d)


def build_reduction(csp: QuadCsp, ell: int) -> Instance:
    """Instance against the unbalanced cycle target with n = ell + 3: one
    gadget per quadruple, occurrence links per shared variable."""
    _check_odd(ell, 5)
    gadget = build_gadget(ell)
    edges: List[Tuple[int, int, object]] = []
    lists: List[FrozenSet[int]] = []
    left: Dict[str, List[int]] = {}
    right: Dict[str, List[int]] = {}
    for qa, qb, qc, qd in csp.quads:
        base = len(lists)
        lists.extend(gadget.lists)
        edges.extend((base + u, base + v, c) for u, v, c in gadget.graph.edges)
        left.setdefault(qa, []).append(base + gadget.a)
        left.setdefault(qb, []).append(base + gadget.b)
        right.setdefault(qc, []).append(base + gadget.c)
        right.setdefault(qd, []).append(base + gadget.d)

    def add_vertex(values: Iterable[int]) -> int:
        lists.append(frozenset(values))
        return len(lists) - 1

    for r in csp.vars:
        occ_l = left.get(r, [])
        occ_r = right.get(r, [])
        if len(occ_l) >= 2:
            x = add_vertex((1,))
            edges.extend((x, o, BLUE) for o in occ_l)
        if len(occ_r) >= 2:
            y = add_vertex((ell - 1,))
            edges.extend((y, o, BLUE) for o in occ_r)
        if occ_l and occ_r:
            path = [add_vertex((i,)) for i in range(1, ell)]
            run = [occ_l[0]] + path + [occ_r[0]]
            edges.extend((u, v, BLUE) for u, v in zip(run, run[1:]))
    return Instance(SignedGraph(len(lists), edges), lists)


__all__ = [
    "quad_relation",
    "QuadCsp",
    "csp_solve",
    "Gadget",
    "build_gadget",
    "build_reduction",
]
