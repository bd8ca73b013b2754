"""Hardness witnesses: chains, invertible pairs, and chains read off 4-cycle patterns."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .sgcore import BICOLOURED, SignedGraph, _bits, bipartition


@dataclass(frozen=True)
class Chain:
    """Walk pair U = u..v, D = u..v of equal length k >= 2 with the first
    step unicoloured/bicoloured, the last bicoloured/unicoloured, and the
    interior steps advancing either on edges with d_i u_{i+1} a non-edge or
    on bicoloured edges with d_i u_{i+1} not bicoloured."""

    U: Tuple[int, ...]
    D: Tuple[int, ...]


@dataclass(frozen=True)
class InvertiblePair:
    """Closed walks U = a..b..a and D = b..a..b of equal length where every
    step has u_i u_{i+1}, d_i d_{i+1} edges and d_i u_{i+1} a non-edge."""

    a: int
    b: int
    U: Tuple[int, ...]
    D: Tuple[int, ...]


def _uni_masks(g: SignedGraph) -> List[int]:
    return [g.adj_mask[v] & ~g.bic_mask[v] for v in range(g.n)]


def verify_chain(g: SignedGraph, c: Chain) -> bool:
    U, D = c.U, c.D
    k = len(U) - 1
    if len(D) != len(U) or k < 2:
        return False
    if U[0] != D[0] or U[k] != D[k]:
        return False
    if any(not 0 <= x < g.n for x in U + D):
        return False

    def uni(x: int, y: int) -> bool:
        col = g.colour(x, y)
        return col is not None and col is not BICOLOURED

    def bic(x: int, y: int) -> bool:
        return g.colour(x, y) is BICOLOURED

    if not (uni(U[0], U[1]) and bic(D[0], D[1])):
        return False
    if not (bic(U[k - 1], U[k]) and uni(D[k - 1], D[k])):
        return False
    for i in range(1, k - 1):
        edges = g.adjacent(U[i], U[i + 1]) and g.adjacent(D[i], D[i + 1])
        case_a = edges and not g.adjacent(D[i], U[i + 1])
        case_b = (
            bic(U[i], U[i + 1])
            and bic(D[i], D[i + 1])
            and not bic(D[i], U[i + 1])
        )
        if not (case_a or case_b):
            return False
    return True


def find_chain(g: SignedGraph) -> Optional[Chain]:
    """Shortest chain via breadth-first search on (u_i, d_i) states."""
    n = g.n
    uni = _uni_masks(g)
    bic = g.bic_mask
    adj = g.adj_mask
    parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
    origin: Dict[Tuple[int, int], int] = {}
    queue: deque = deque()
    for u in range(n):
        for x in _bits(uni[u]):
            for y in _bits(bic[u]):
                if (x, y) not in parent:
                    parent[(x, y)] = None
                    origin[(x, y)] = u
                    queue.append((x, y))

    def reconstruct(state: Tuple[int, int], v: int) -> Chain:
        states = [state]
        while parent[states[-1]] is not None:
            states.append(parent[states[-1]])
        states.reverse()
        u = origin[states[0]]
        return Chain(
            U=(u,) + tuple(x for x, _ in states) + (v,),
            D=(u,) + tuple(y for _, y in states) + (v,),
        )

    while queue:
        x, y = queue.popleft()
        accept = bic[x] & uni[y]
        if accept:
            return reconstruct((x, y), next(_bits(accept)))
        succ_edge = [(xp, yp) for xp in _bits(adj[x] & ~adj[y]) for yp in _bits(adj[y])]
        succ_bic = [(xp, yp) for xp in _bits(bic[x] & ~bic[y]) for yp in _bits(bic[y])]
        for state in sorted(set(succ_edge) | set(succ_bic)):
            if state not in parent:
                parent[state] = (x, y)
                origin[state] = origin[(x, y)]
                queue.append(state)
    return None


def verify_invertible_pair(g: SignedGraph, p: InvertiblePair) -> bool:
    U, D = p.U, p.D
    t = len(U) - 1
    if len(D) != len(U) or t < 2:
        return False
    if U[0] != p.a or U[t] != p.a or D[0] != p.b or D[t] != p.b:
        return False
    if not any(U[k] == p.b and D[k] == p.a for k in range(1, t)):
        return False
    for i in range(t):
        if not (g.adjacent(U[i], U[i + 1]) and g.adjacent(D[i], D[i + 1])):
            return False
    for i in range(1, t - 1):
        if g.adjacent(D[i], U[i + 1]):
            return False
    return True


def find_invertible_pair(g: SignedGraph) -> Optional[InvertiblePair]:
    """Smallest pair (a, b) with (a,b) and (b,a) in one strong component of
    the pair digraph; every step constrained, not just the interior ones.

    States pair distinct vertices from one side of the bipartition, where
    the non-edge arc constraint can never degenerate; steps stay on one
    side, so the restriction is closed. Non-bipartite graphs get none.
    """
    n = g.n
    adj = g.adj_mask
    part = bipartition(g)
    if part is None:
        return None
    states = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and part.side(x) == part.side(y)
    ]
    index = {s: i for i, s in enumerate(states)}

    def successors(s: Tuple[int, int]) -> List[Tuple[int, int]]:
        x, y = s
        return [
            (xp, yp)
            for xp in _bits(adj[x] & ~adj[y])
            for yp in _bits(adj[y])
            if xp != yp
        ]

    comp = _tarjan(states, index, successors)
    best: Optional[Tuple[int, int]] = None
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in index:
                continue
            if comp[index[(a, b)]] == comp[index[(b, a)]]:
                best = (a, b)
                break
        if best:
            break
    if best is None:
        return None
    a, b = best

    def walk(src: Tuple[int, int], dst: Tuple[int, int]) -> List[Tuple[int, int]]:
        prev: Dict[Tuple[int, int], Tuple[int, int]] = {src: src}
        queue = deque([src])
        while queue:
            s = queue.popleft()
            for t in successors(s):
                if t not in prev:
                    prev[t] = s
                    if t == dst:
                        queue.clear()
                        break
                    queue.append(t)
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    closed = walk((a, b), (b, a)) + walk((b, a), (a, b))[1:]
    return InvertiblePair(
        a=a,
        b=b,
        U=tuple(x for x, _ in closed),
        D=tuple(y for _, y in closed),
    )


def _tarjan(states, index, successors) -> List[int]:
    n = len(states)
    comp = [-1] * n
    low = [0] * n
    num = [-1] * n
    counter = 0
    ncomp = 0
    stack: List[int] = []
    on_stack = [False] * n
    for root in range(n):
        if num[root] != -1:
            continue
        work = [(root, iter(successors(states[root])))]
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for s in it:
                w = index[s]
                if num[w] == -1:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors(states[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == num[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def chain_of_alternating_4cycle(t: Tuple[int, int, int, int]) -> Chain:
    v1, v2, v3, v4 = t
    return Chain(U=(v1, v4, v3), D=(v1, v2, v3))


def chain_of_4cycle_pair(
    g: SignedGraph, t: Tuple[int, int, int, int, int, int, int]
) -> Chain:
    v1, v2, v3, _, v5, v6, v7 = t
    if g.colour(v3, v5) is BICOLOURED:
        return chain_of_alternating_4cycle((v3, v5, v6, v2))
    return Chain(U=(v1, t[3], v3, v2, v1), D=(v1, v5, v6, v7, v1))


def witness_dict(w) -> dict:
    """JSON-ready form of any witness value."""
    if isinstance(w, Chain):
        return {"kind": "chain", "U": list(w.U), "D": list(w.D)}
    if isinstance(w, InvertiblePair):
        return {
            "kind": "invertible_pair",
            "a": w.a,
            "b": w.b,
            "U": list(w.U),
            "D": list(w.D),
        }
    raise ValueError("not a witness value")


__all__ = [
    "Chain",
    "InvertiblePair",
    "verify_chain",
    "find_chain",
    "verify_invertible_pair",
    "find_invertible_pair",
    "chain_of_alternating_4cycle",
    "chain_of_4cycle_pair",
    "witness_dict",
]
