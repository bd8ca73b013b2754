"""Hardness witnesses: chains, invertible pairs, and chains read off 4-cycle patterns.

Both witnesses are searched for in the pair digraph of (u_i, d_i) states
(Hell and Rafiey). One breadth-first search over neighbour masks
(``_shortest_walk``) finds chains, over edge steps and bicoloured steps, and
the invertible pair's two walks, over edge steps alone. It keeps, for each
x, the mask of the y already reached with x, and expands a state (x, y) with
a few big-int operations per successor x'. Strong components over the edge
steps (``_steps``) pick the pair.
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
    step, the first and last included, has u_i u_{i+1}, d_i d_{i+1} edges
    and d_i u_{i+1} a non-edge. The graph is bipartite, and a != b lie in
    one class of its bipartition: across the classes the non-edge rule
    always holds, so it would constrain nothing."""

    a: int
    b: int
    U: Tuple[int, ...]
    D: Tuple[int, ...]


def _uni_masks(g: SignedGraph) -> List[int]:
    return [a & ~b for a, b in zip(g.adj_mask, g.bic_mask)]


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


def _shortest_walk(
    A: List[int],
    B: List[int],
    starts: Iterable[Tuple[int, int]],
    goal: Callable[[int], int],
) -> Optional[List[State]]:
    """States of a shortest walk in the pair digraph from a start state to
    a goal state, by breadth-first search. A step (x, y) -> (x', y') has xx'
    and yy' in A and yx' not, or the same in B. starts yields (x, Y) for the
    states (x, y), y in mask Y; goal(x) is the mask of the y with (x, y) a
    goal, computed on first need, and tested as states are queued. seen[x]
    masks the y reached with x. Expanding (x, y) walks x' in ascending order
    over (A[x] & ~A[y]) | (B[x] & ~B[y]) and queues the new y' of A[y] and/or
    B[y], ascending: a few big-int operations per x'. Ties and parents are
    those of a FIFO search over single states, earliest start and successor
    first."""
    seen = [0] * len(A)
    goals: List[Optional[int]] = [None] * len(A)
    queue: deque = deque()
    # head is (x, y, head it was queued from), None for the starts.
    found, head = starts, None
    while True:
        for x, ys in found:
            new = ys & ~seen[x]
            if not new:
                continue
            seen[x] |= new
            hit = goals[x]
            if hit is None:
                hit = goals[x] = goal(x)
            hit &= new
            if hit:
                path = [(x, (hit & -hit).bit_length() - 1)]
                while head is not None:
                    path.append((head[0], head[1]))
                    head = head[2]
                return path[::-1]
            for y in _bits(new):
                queue.append((x, y, head))
        if not queue:
            return None
        head = queue.popleft()
        x, y, _ = head
        ay, by = A[y], B[y]
        viaA, viaB = A[x] & ~ay, B[x] & ~by
        found = [
            (xp, (ay if viaA >> xp & 1 else 0) | (by if viaB >> xp & 1 else 0))
            for xp in _bits(viaA | viaB)
        ]


def find_chain(g: SignedGraph) -> Optional[Chain]:
    """Shortest chain via breadth-first search on (u_i, d_i) states: an
    interior step is an edge step or a bicoloured step of the pair digraph.
    The starts are (x, y) with ux unicoloured and uy bicoloured, for u in
    ascending order, and the goals (x, y) with xv bicoloured and yv
    unicoloured for some v."""
    uni = _uni_masks(g)
    bic = g.bic_mask

    def goal(x: int) -> int:
        m = 0
        for z in _bits(bic[x]):
            m |= uni[z]
        return m

    path = _shortest_walk(
        g.adj_mask,
        bic,
        ((x, bic[u]) for u in range(g.n) for x in _bits(uni[u])),
        goal,
    )
    if path is None:
        return None
    (x0, y0), (x, y) = path[0], path[-1]
    u, v = next(_bits(uni[x0] & bic[y0])), next(_bits(bic[x] & uni[y]))
    xs, ys = zip(*path)
    return Chain(U=(u, *xs, v), D=(u, *ys, v))


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
        if g.adjacent(D[i], U[i + 1]):
            return False
    part = bipartition(g)
    return p.a != p.b and part is not None and part.side(p.a) == part.side(p.b)


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
    # Over one mask list, _shortest_walk steps by the rule of _steps.
    adj = g.adj_mask
    there = _shortest_walk(adj, adj, [(a, 1 << b)], lambda x: 1 << a if x == b else 0)
    back = _shortest_walk(adj, adj, [(b, 1 << a)], lambda x: 1 << b if x == a else 0)
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
