"""List-homomorphism solvers: arc consistency; one loop over instance
components and side assignments behind the ordered solver (least value by
rank, then a balance walk) and the region/parity-walk algorithm for the
small unbalanced cycle target; a propagate-and-search oracle over (target
vertex, switch bit) values for any target; solve picks the route for a
target."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from .sgcore import (
    BICOLOURED, BLUE, RED, SignedGraph, Switching, _bits, _inverse, _parity_lists,
    _parity_walk, _switching, is_semi_balanced,
)
from . import targets
from .classify import NP_COMPLETE, classify
from .ordering import (
    Ordering, _min_violator, _rank_rows, _special_violator, ordering_for_cycle_target,
)


@dataclass(frozen=True)
class Instance:
    g: SignedGraph
    lists: Tuple[FrozenSet[int], ...]

    def __init__(self, g: SignedGraph, lists: Iterable[Iterable[int]]):
        frozen = tuple(frozenset(x) for x in lists)
        if len(frozen) != g.n:
            raise ValueError("need one list per vertex")
        if any(a < 0 for l in frozen for a in l):
            raise ValueError("negative list value")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lists", frozen)

    @classmethod
    def _checked(cls, g: SignedGraph, lists: Tuple[FrozenSet[int], ...]) -> "Instance":
        """The instance of one frozen list per vertex of g, its values
        already checked to be non-negative, as __init__ checks them."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "g", g)
        object.__setattr__(inst, "lists", lists)
        return inst


@dataclass(frozen=True)
class Solution:
    mapping: Tuple[int, ...]
    switching: Switching


@dataclass(frozen=True)
class Gf2System:
    variables: Tuple[Hashable, ...]
    equations: Tuple[Tuple[FrozenSet[Hashable], int], ...]

    def __init__(self, variables, equations):
        """equations are (variables, bit) pairs, each meaning that the sum of
        its variables is bit mod 2; a variable listed twice cancels, so each
        equation keeps the variables it lists an odd number of times."""
        folded = []
        for vs, b in equations:
            odd: set = set()
            for v in vs:
                odd ^= {v}
            folded.append((frozenset(odd), b & 1))
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "equations", tuple(folded))


def gf2_solve(sys: Gf2System) -> Optional[Dict[Hashable, int]]:
    """One solution of the system (free variables 0), or absent."""
    idx: Dict[Hashable, int] = {}
    for v in sys.variables:
        if v in idx:
            raise ValueError("duplicate variable %r" % (v,))
        idx[v] = len(idx)
    pivots: Dict[int, Tuple[int, int]] = {}
    for vs, bit in sys.equations:
        mask = 0
        for v in vs:
            if v not in idx:
                raise ValueError("undeclared variable %r" % (v,))
            mask |= 1 << idx[v]
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            if c not in pivots:
                break
            pm, pb = pivots[c]
            mask ^= pm
            bit ^= pb
        if mask == 0:
            if bit:
                return None
            continue
        pivots[(mask & -mask).bit_length() - 1] = (mask, bit)
    values = [0] * len(idx)
    for c in sorted(pivots, reverse=True):
        mask, bit = pivots[c]
        for k in _bits(mask ^ (1 << c)):
            bit ^= values[k]
        values[c] = bit
    return {v: values[i] for v, i in idx.items()}


def _mask_of(values: Iterable[int]) -> int:
    m = 0
    for a in values:
        m |= 1 << a
    return m


def _check_lists(inst: Instance, h: SignedGraph) -> None:
    if any(a >= h.n for l in inst.lists for a in l):
        raise ValueError("list value outside the target")


# nbrs[w] lists (u, rows, memo) for each neighbour u of w: rows[j] is the
# mask of u's values that w's value j supports, and memo maps a mask of w's
# values to the union of their rows. Edges whose colours map to the same
# rows table share it and its memo.
_Nbrs = List[List[Tuple[int, List[int], Dict[int, int]]]]


def _propagate(
    nbrs: _Nbrs,
    masks: List[int],
    seeds: Iterable[int],
    trail: List[Tuple[int, int]],
) -> bool:
    """Arc-consistency fixpoint from the seed vertices. Every change is
    logged to trail as (vertex, old mask); False when a mask empties."""
    queue = deque(seeds)
    queued = set(queue)
    while queue:
        w = queue.popleft()
        queued.discard(w)
        mw = masks[w]
        for u, rows, memo in nbrs[w]:
            sup = memo.get(mw)
            if sup is None:
                sup = 0
                for j in _bits(mw):
                    sup |= rows[j]
                memo[mw] = sup
            old = masks[u]
            new = old & sup
            if new != old:
                trail.append((u, old))
                masks[u] = new
                if new == 0:
                    return False
                if u not in queued:
                    queued.add(u)
                    queue.append(u)
    return True


def _target_nbrs(
    g: SignedGraph, blue: List[int], red: List[int], bic: List[int]
) -> _Nbrs:
    """Supports across the edges of g from one rows table per edge colour,
    over target vertices (a bicoloured edge needs a bicoloured image, any
    other edge an edge) or over the oracle's lifted values. Every table is
    symmetric, so one serves both directions of every edge."""
    nbrs: _Nbrs = [[] for _ in range(g.n)]
    memos: Dict[int, Dict[int, int]] = {}
    by_blue, by_red, by_bic = [
        (rows, memos.setdefault(id(rows), {})) for rows in (blue, red, bic)
    ]
    for u, v, c in g.edges:
        rows, memo = by_bic if c is BICOLOURED else by_red if c is RED else by_blue
        nbrs[u].append((v, rows, memo))
        nbrs[v].append((u, rows, memo))
    return nbrs


def arc_consistency(
    inst: Instance, h: SignedGraph
) -> Optional[Tuple[FrozenSet[int], ...]]:
    """Fixpoint of the underlying and bicoloured support passes; absent when
    a list empties. Every solution survives."""
    _check_lists(inst, h)
    masks = [_mask_of(l) for l in inst.lists]
    if 0 in masks:
        return None
    nbrs = _target_nbrs(inst.g, h.adj_mask, h.adj_mask, h.bic_mask)
    if not _propagate(nbrs, masks, range(inst.g.n), []):
        return None
    return tuple(frozenset(_bits(m)) for m in masks)


def _lifted_rows(h: SignedGraph) -> Tuple[List[int], List[int], List[int]]:
    """The oracle's rows tables for blue, red and bicoloured instance edges,
    by the support rule solve_oracle states, over lifted values: 2a + p is
    (target vertex a, switch bit p), and rows[2a + p] is the mask of lifted
    values it supports across an edge of that colour."""
    blue, red, bic = ([0] * (2 * h.n) for _ in range(3))
    for a, b, col in h.edges:
        for x, y in ((2 * a, 2 * b), (2 * b, 2 * a)):
            if col is BICOLOURED:
                for rows in (blue, red, bic):
                    rows[x] |= 3 << y
                    rows[x + 1] |= 3 << y
            else:
                agree, differ = (blue, red) if col is BLUE else (red, blue)
                agree[x] |= 1 << y
                agree[x + 1] |= 2 << y
                differ[x] |= 2 << y
                differ[x + 1] |= 1 << y
    return blue, red, bic


def _search(
    nbrs: _Nbrs, masks: List[int], comp: List[int]
) -> Tuple[bool, int]:
    """Depth-first search on an arc-consistent component until every mask is
    a singleton: branch on the vertex with the fewest values left (ties to
    the lower id), lowest value bit first, propagating after each choice.
    Returns whether it succeeded and the number of failed choices."""
    # Entries go stale as masks change and are skipped; each vertex with two
    # or more values left has an entry for its current count, pushed when
    # its mask last changed.
    heap = [(masks[v].bit_count(), v) for v in comp if masks[v].bit_count() > 1]
    heapify(heap)
    trail: List[Tuple[int, int]] = []
    # (vertex, values not yet tried, trail length before its choice)
    stack: List[Tuple[int, int, int]] = []
    backtracks = 0
    while True:
        while heap and masks[heap[0][1]].bit_count() != heap[0][0]:
            heappop(heap)
        if not heap:
            return True, backtracks
        v = heap[0][1]
        stack.append((v, masks[v], len(trail)))
        while True:
            if not stack:
                return False, backtracks
            v, left, mark = stack.pop()
            while len(trail) > mark:
                u, old = trail.pop()
                masks[u] = old
                if old & (old - 1):
                    heappush(heap, (old.bit_count(), u))
            if not left:
                if stack:
                    backtracks += 1
                continue
            low = left & -left
            stack.append((v, left ^ low, mark))
            trail.append((v, masks[v]))
            masks[v] = low
            if _propagate(nbrs, masks, (v,), trail):
                break
            backtracks += 1
        for i in range(mark + 1, len(trail)):
            u = trail[i][0]
            m = masks[u]
            if m & (m - 1):
                heappush(heap, (m.bit_count(), u))


def solve_oracle(
    inst: Instance, h: SignedGraph, stats: Optional[dict] = None
) -> Optional[Solution]:
    """Exact decision for any target: search over lifted values 2a + p, list
    value a in vertex order and switch bit p, 0 (+) first, with arc
    consistency on the lifted supports after every choice, counting
    backtracks. An edge of colour c supports (a, p)-(b, q) when h.colour(a,
    b) is bicoloured, or when c and h.colour(a, b) are both unicoloured and
    p ^ q is 1 exactly when they differ."""
    _check_lists(inst, h)
    if stats is not None:
        stats.setdefault("backtracks", 0)
    g = inst.g
    masks = [_mask_of(2 * a for a in l) * 3 for l in inst.lists]
    if 0 in masks:
        return None
    nbrs = _target_nbrs(g, *_lifted_rows(h))
    if not _propagate(nbrs, masks, range(g.n), []):
        return None
    _, comps = _parity_walk(
        _parity_lists(g.n, ((u, w, 0) for u, w, _ in g.edges)), range(g.n)
    )
    for comp in comps:
        found, backtracks = _search(nbrs, masks, comp)
        if stats is not None:
            stats["backtracks"] += backtracks
        if not found:
            return None
    chosen = [m.bit_length() - 1 for m in masks]
    return Solution(
        mapping=tuple(i >> 1 for i in chosen),
        switching=Switching(v for v, i in enumerate(chosen) if i & 1),
    )


_Signed = List[List[Tuple[int, int]]]
_Assigned = Optional[List[Tuple[int, int, int]]]
_Finish = Callable[[_Signed, List[int], List[int]], _Assigned]


def _by_sides(inst: Instance, h: SignedGraph, o: Ordering, finish: _Finish) -> Optional[Solution]:
    """Solve inst against a target whose edges all join the two classes of
    the ordering o, one instance component at a time. Each try restricts the
    component's least vertex to one class, black then white, and runs arc
    consistency, whose fixpoint confines every other vertex to the class its
    distance from the least one calls for and wipes out a list on an odd
    cycle. finish then gets red, the component in increasing order, and the
    masks, and returns (vertex, image, switch bit) triples or None. red is
    the instance's one signed adjacency: red[v] lists each neighbour of v in
    increasing order, with 1 for a red edge. Absent when a component fails
    both tries."""
    _check_lists(inst, h)
    g = inst.g
    _, comps = _parity_walk(
        _parity_lists(g.n, ((u, v, 0) for u, v, _ in g.edges)), range(g.n)
    )
    red = _parity_lists(g.n, ((u, v, c is RED) for u, v, c in g.edges))
    nbrs = _target_nbrs(g, h.adj_mask, h.adj_mask, h.bic_mask)
    classes = (_mask_of(o.black_order), _mask_of(o.white_order))
    base = [_mask_of(l) for l in inst.lists]
    # One masks list for all components: a try resets only its own entries.
    masks = list(base)
    mapping = [-1] * g.n
    switch = [0] * g.n
    for comp in comps:
        comp.sort()
        root = comp[0]
        for cls in classes:
            for v in comp:
                masks[v] = base[v]
            masks[root] &= cls
            if masks[root] and _propagate(nbrs, masks, comp, []):
                result = finish(red, comp, masks)
                if result is not None:
                    break
        else:
            return None
        for v, a, p in result:
            mapping[v] = a
            switch[v] = p
    return Solution(
        mapping=tuple(mapping), switching=Switching(v for v in range(g.n) if switch[v])
    )


_H1 = targets.build_h1()
_H1_ORDERING = ordering_for_cycle_target(targets.H1)
_H_WHITE = _mask_of(_H1_ORDERING.white_order)


def solve_h1(inst: Instance) -> Optional[Solution]:
    """Region decomposition against the canonical 6-vertex unbalanced cycle
    target: side assignment, arc consistency, boundary grounding on {b, w},
    and one parity walk per component tying region choices to boundary
    switchings."""
    return _by_sides(inst, _H1, _H1_ORDERING, _solve_h1_component)


def _solve_h1_component(red: _Signed, comp: List[int], masks: List[int]) -> _Assigned:
    """The finish of solve_h1 for one component, as _by_sides calls it;
    masks need only hold comp's masks."""
    hw = {v: int(masks[v] & _H_WHITE != 0) for v in comp}
    boundary = [v for v in comp if masks[v] & 0b001001]
    ground = {v: 0 if masks[v] & 1 else 3 for v in boundary}
    interior = [v for v in comp if v not in ground]
    # Regions are the components of the interior, sigma the red parity of
    # each vertex from the least vertex of its region.
    found = _parity_walk(
        {v: [(w, p) for w, p in red[v] if w not in ground] for v in interior}, interior
    )
    if found is None:
        return None
    sigma, regions = found

    # Every edge from a region to a ground vertex maps onto a blue edge of H1
    # (0-1, 0-4, 2-3 or 3-5), so a region vertex k of class hw[k] switches by
    # sigma[k] ^ c and each ground neighbour across an edge of red parity r by
    # r ^ sigma[k] ^ c, where c is one bit per (region, class): the bit of
    # node len(boundary) + 2 * ridx + hw[k] in a walk whose first nodes are
    # the boundary vertices. A region's own edges then ask for equal class
    # bits on the long side {1, 2} and, across the red edge, unequal ones on
    # the short side {4, 5}. A region that fits one side only is tied to it;
    # one that fits both takes the long side unless ground vertices of both
    # classes decide. Every region fits a side: across an interior edge a
    # long value (1, 2) finds support only in a long value and a short one
    # (4, 5) only in a short one, so after arc consistency a region has its
    # long values at every vertex or at none, and likewise its short ones;
    # no list is empty.
    slot = {a: i for i, a in enumerate(boundary)}
    ties: List[Tuple[int, int, int]] = []
    for ridx, region in enumerate(regions):
        t_ok = all(masks[k] >> (1 + hw[k]) & 1 for k in region)
        s_ok = all(masks[k] >> (4 + hw[k]) & 1 for k in region)
        node = len(boundary) + 2 * ridx
        touched = set()
        for k in region:
            for a, r in red[k]:
                if a in ground:
                    ties.append((slot[a], node + hw[k], r ^ sigma[k]))
                    touched.add(hw[k])
        if t_ok != s_ok or len(touched) < 2:
            ties.append((node, node + 1, not t_ok))

    size = len(boundary) + 2 * len(regions)
    found = _parity_walk(_parity_lists(size, ties), range(size))
    if found is None:
        return None
    bit = found[0]
    out = [(a, ground[a], bit[slot[a]]) for a in boundary]
    for ridx, region in enumerate(regions):
        node = len(boundary) + 2 * ridx
        side = 1 if bit[node] == bit[node + 1] else 4
        for k in region:
            out.append((k, side + hw[k], sigma[k] ^ bit[node + hw[k]]))
    return out


def solve_ordered(
    inst: Instance, h: SignedGraph, o: Ordering, stats: Optional[dict] = None
) -> Optional[Solution]:
    """Exact decision for a semi-balanced target with a special min
    ordering o, without search: per instance component and side assignment,
    arc consistency, then every vertex takes the value of least rank in o
    left in its list, and one parity walk over the edges whose image is
    unicoloured finds the switching that gives each its image's sign; a
    conflict fails the side. stats["backtracks"] stays 0.

    o is checked as verify_min_ordering and verify_special check it, from
    one rank-row table: O(n + m) for the table, then O(|W|) and O(n)
    big-int operations for the two scans."""
    _, rank, uni, bic = _rank_rows(h, o)
    if _min_violator(o, uni, bic) is not None or _special_violator(uni, bic) is not None:
        raise ValueError("ordering fails verification on the target")
    if is_semi_balanced(h) is None:
        raise ValueError("target is not semi-balanced")
    if stats is not None:
        stats.setdefault("backtracks", 0)

    def finish(red: _Signed, comp: List[int], masks: List[int]) -> _Assigned:
        image = {v: min(_bits(masks[v]), key=rank.__getitem__) for v in comp}
        onto_uni = {v: [] for v in comp}
        for v in comp:
            for w, p in red[v]:
                ic = h.colour(image[v], image[w])
                if ic is not BICOLOURED:
                    onto_uni[v].append((w, p ^ (ic is RED)))
        found = _parity_walk(onto_uni, comp)
        if found is None:
            return None
        return [(v, image[v], found[0][v]) for v in comp]

    return _by_sides(inst, h, o, finish)


def check_solution(inst: Instance, h: SignedGraph, sol: Solution) -> List[str]:
    """Independent validity report; empty means valid."""
    problems: List[str] = []
    g = inst.g
    if len(sol.mapping) != g.n:
        return ["mapping length %d, expected %d" % (len(sol.mapping), g.n)]
    if any(not 0 <= v < g.n for v in sol.switching.flipped):
        return ["switching names a vertex outside the instance"]
    for v, a in enumerate(sol.mapping):
        if not 0 <= a < h.n:
            problems.append("vertex %d mapped outside the target" % v)
        elif a not in inst.lists[v]:
            problems.append("vertex %d mapped to %d, not in its list" % (v, a))
    if problems:
        return problems
    flip = sol.switching.flipped
    for u, v, c in g.edges:
        ic = h.colour(sol.mapping[u], sol.mapping[v])
        if ic is None:
            problems.append("edge %d %d maps to a non-edge" % (u, v))
            continue
        if c is BICOLOURED:
            if ic is not BICOLOURED:
                problems.append("bicoloured edge %d %d maps to %s" % (u, v, ic.value))
            continue
        if ic is BICOLOURED:
            continue
        sign = (c is RED) ^ (u in flip) ^ (v in flip)
        if sign != (ic is RED):
            problems.append("edge %d %d has the wrong image sign" % (u, v))
    return problems


def _solve_via_h1(
    target: SignedGraph, inst: Instance, phi: Tuple[int, ...], o: Ordering
) -> Optional[Solution]:
    """Solve against a target that phi aligns onto _H1, on the target as
    given with o, the verdict's ordering: switching and relabelling keep
    adjacency and bicoloured edges, so each component's masks read through
    phi are those against _H1. One walk rooted at the vertex phi sends to 0
    gives the switching s the equivalence search finds for this phi; an
    image a comes back as inv[a], switched when inv[a] is in s."""
    uni = ((u, v, c) for u, v, c in target.edges if c is not BICOLOURED)
    s = _switching(
        target, ((u, v, c is not _H1.colour(phi[u], phi[v])) for u, v, c in uni), (phi.index(0),)
    )
    inv = _inverse(phi)

    def finish(red: _Signed, comp: List[int], masks: List[int]) -> _Assigned:
        h1_masks = {v: _mask_of(phi[a] for a in _bits(masks[v])) for v in comp}
        found = _solve_h1_component(red, comp, h1_masks)
        return found and [(v, inv[a], p ^ (inv[a] in s.flipped)) for v, a, p in found]

    return _by_sides(inst, target, o, finish)


def solve(
    target: SignedGraph, inst: Instance, alg: str = "auto", stats: Optional[dict] = None
) -> Optional[Solution]:
    """Decide inst against target by the route alg names: "oracle" for any
    target, or a route read off the target's verdict, from one classify
    call: h1 when the verdict matches the 6-vertex unbalanced cycle, which
    reuses the verdict's alignment phi, else ordered by the verdict's
    special min ordering. "auto" takes that route; "h1" and "ordered" only
    check that it is the one they name. Raises ValueError when the route
    does not apply to the target, or when a solution fails check_solution."""
    if stats is not None:
        stats.setdefault("backtracks", 0)
    if alg == "oracle":
        sol = solve_oracle(inst, target, stats)
    elif alg in ("auto", "h1", "ordered"):
        verdict = classify(target)
        if verdict.reason == "MatchesH1" and alg != "ordered":
            sol = _solve_via_h1(target, inst, verdict.phi, verdict.ordering)
        elif alg == "h1":
            raise ValueError("target is not equivalent to the 6-vertex unbalanced cycle")
        elif verdict.complexity == NP_COMPLETE:
            if alg == "ordered":
                raise ValueError("target is NP-complete; no ordering exists")
            raise ValueError(
                "target is NP-complete (%s); rerun with --alg oracle" % verdict.reason
            )
        else:
            sol = solve_ordered(inst, target, verdict.ordering, stats)
    else:
        raise ValueError("unknown alg %r" % alg)
    if sol is not None:
        problems = check_solution(inst, target, sol)
        if problems:
            raise ValueError(
                "solver returned an invalid solution: %s" % "; ".join(problems)
            )
    return sol


__all__ = [
    "Instance",
    "Solution",
    "Gf2System",
    "gf2_solve",
    "arc_consistency",
    "solve_oracle",
    "solve_h1",
    "solve_ordered",
    "check_solution",
    "solve",
]
