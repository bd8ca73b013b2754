"""Hardness witnesses: chains, invertible pairs, and chains read off 4-cycle patterns.

Both witnesses are searched for in one pair digraph of (u_i, d_i) states,
with one step rule (``_steps``): one breadth-first search (``_shortest``)
finds chains and the invertible pair's walks, and strong components pick
the pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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


State = Tuple[int, int]


def _steps(mask: List[int], x: int, y: int) -> List[State]:
    """Pair-digraph steps (x, y) -> (x', y') with xx' and yy' in ``mask``
    and yx' not, in ascending order."""
    return [(xp, yp) for xp in _bits(mask[x] & ~mask[y]) for yp in _bits(mask[y])]


def _shortest(
    starts: Iterable[State],
    successors: Callable[[State], Iterable[State]],
    goal: Callable[[State], bool],
) -> Optional[List[State]]:
    """States of a shortest walk from a start to a goal state, by
    breadth-first search; ties go to the earliest start and successor.
    The queue is FIFO, so testing the goal when a state is queued finds the
    state a test on dequeue would find, with the same parent."""
    parent: Dict[State, Optional[State]] = {}
    queue: deque = deque()
    found = ((s, None) for s in starts)
    while True:
        for s, p in found:
            if s in parent:
                continue
            parent[s] = p
            if goal(s):
                path = [s]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(s)
        if not queue:
            return None
        head = queue.popleft()
        found = ((s, head) for s in successors(head))


def find_chain(g: SignedGraph) -> Optional[Chain]:
    """Shortest chain via breadth-first search on (u_i, d_i) states: an
    interior step is an edge step or a bicoloured step of the pair digraph."""
    uni = _uni_masks(g)
    bic = g.bic_mask
    adj = g.adj_mask
    origin: Dict[State, int] = {}
    for u in range(g.n):
        for x in _bits(uni[u]):
            for y in _bits(bic[u]):
                origin.setdefault((x, y), u)
    path = _shortest(
        origin,
        lambda s: sorted(set(_steps(adj, *s)) | set(_steps(bic, *s))),
        lambda s: bic[s[0]] & uni[s[1]] != 0,
    )
    if path is None:
        return None
    x, y = path[-1]
    u, v = origin[path[0]], next(_bits(bic[x] & uni[y]))
    return Chain(
        U=(u,) + tuple(x for x, _ in path) + (v,),
        D=(u,) + tuple(y for _, y in path) + (v,),
    )


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
    The closed walk is two breadth-first searches, (a,b) to (b,a) and back.

    States pair distinct vertices from one side of the bipartition, where
    the non-edge arc constraint can never degenerate; steps stay on one
    side, so the restriction is closed. Non-bipartite graphs get none.
    """
    n = g.n
    part = bipartition(g)
    if part is None:
        return None
    steps = {
        (x, y): _steps(g.adj_mask, x, y)
        for x in range(n)
        for y in range(n)
        if x != y and part.side(x) == part.side(y)
    }
    # Strong components by Kosaraju, without a reversed digraph: steps
    # (x,y) -> (x',y') and (y',x') -> (y,x) both say that xx' and yy' are
    # edges and yx' is not, so the predecessors of (x,y) are the swapped
    # successors of (y,x).
    seen: Set[State] = set()
    order: List[State] = []
    for root in steps:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(steps[root]))]
        while stack:
            s, succ = stack[-1]
            for t in succ:
                if t not in seen:
                    seen.add(t)
                    stack.append((t, iter(steps[t])))
                    break
            else:
                stack.pop()
                order.append(s)
    comp: Dict[State, State] = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        todo = [root]
        while todo:
            x, y = todo.pop()
            for yp, xp in steps[(y, x)]:
                if (xp, yp) not in comp:
                    comp[(xp, yp)] = root
                    todo.append((xp, yp))
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n) if (a, b) in comp)
    best = next(((a, b) for a, b in pairs if comp[(a, b)] == comp[(b, a)]), None)
    if best is None:
        return None
    a, b = best
    there = _shortest([(a, b)], steps.__getitem__, lambda s: s == (b, a))
    back = _shortest([(b, a)], steps.__getitem__, lambda s: s == (a, b))
    closed = there + back[1:]
    return InvertiblePair(
        a=a,
        b=b,
        U=tuple(x for x, _ in closed),
        D=tuple(y for _, y in closed),
    )


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
