"""List-homomorphism solvers: arc consistency; one loop over instance
components and side assignments, over the places of the target's special
min ordering, behind the ordered solver (least place, then a balance walk)
and the region/parity-walk algorithm for the small unbalanced cycle target;
a propagate-and-search oracle over (target vertex, switch bit) values for
any target; solve picks the route for a target."""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from .sgcore import (
    BICOLOURED, BLUE, RED, SignedGraph, Switching, _bits, _parity_lists, _parity_walk,
    _switching, is_semi_balanced,
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
        # bool is a subclass of int, so True would pass an isinstance check.
        if any(type(a) is not int or a < 0 for l in frozen for a in l):
            raise ValueError("list values must be non-negative ints")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lists", frozen)

    @classmethod
    def _checked(cls, g: SignedGraph, lists: Tuple[FrozenSet[int], ...]) -> "Instance":
        """The instance of one frozen list per vertex of g, its values
        already checked to be non-negative ints, as __init__ checks them."""
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
    g: SignedGraph, blue: List[int], red: List[int], bic: List[int],
    memos: Dict[int, Dict[int, int]],
) -> _Nbrs:
    """Supports across the edges of g from one rows table per edge colour,
    over places or target vertices (a bicoloured edge needs a bicoloured
    image, any other edge an edge) or the oracle's lifted values. Every table
    is symmetric, so one serves both directions of every edge. memos maps
    the id of each table to its memo, and gains one for a table it lacks."""
    nbrs: _Nbrs = [[] for _ in range(g.n)]
    by_blue, by_red, by_bic = [
        (rows, memos.setdefault(id(rows), {})) for rows in (blue, red, bic)
    ]
    for u, v, c in g.edges:
        rows, memo = by_bic if c is BICOLOURED else by_red if c is RED else by_blue
        nbrs[u].append((v, rows, memo))
        nbrs[v].append((u, rows, memo))
    return nbrs


def _components(nbrs: _Nbrs) -> List[List[int]]:
    """The components of the graph whose adjacency nbrs is, in the order of
    their least vertices, each from that vertex in visiting order."""
    seen = [False] * len(nbrs)
    comps = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for u, _, _ in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comps.append(comp)
    return comps


def arc_consistency(
    inst: Instance, h: SignedGraph
) -> Optional[Tuple[FrozenSet[int], ...]]:
    """Fixpoint of the underlying and bicoloured support passes; absent when
    a list empties. Every solution survives."""
    masks = [_mask_of(l) for l in inst.lists]
    if any(m >> h.n for m in masks):
        raise ValueError("list value outside the target")
    if 0 in masks:
        return None
    nbrs = _target_nbrs(inst.g, h.adj_mask, h.adj_mask, h.bic_mask, {})
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


# A memo or list map past this size is cleared when a call starts, so a
# stream of distinct lists against one target cannot grow it without bound.
_MEMO_CAP = 4096
_Oracle = Tuple[Tuple[List[int], List[int], List[int]], Dict[int, Dict[int, int]],
                Dict[FrozenSet[int], int]]


@functools.lru_cache(maxsize=8)
def _oracle_tables(h: SignedGraph) -> _Oracle:
    """solve_oracle's state for h, kept across calls on equal targets: the
    lifted rows tables, their memos as _target_nbrs keys them, and a map from
    a list to its lifted mask. Memos and masks depend on h alone, so a warm
    entry changes no output."""
    return _lifted_rows(h), {}, {}


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
    p ^ q is 1 exactly when they differ.

    The lifted tables, their support memos and the lifted list masks are
    kept per target across calls, for the 8 targets used last, and a memo or
    list map past 4,096 entries is cleared when a call starts."""
    if stats is not None:
        stats.setdefault("backtracks", 0)
    g = inst.g
    rows, memos, lifted = _oracle_tables(h)
    for kept in (lifted, *memos.values()):
        if len(kept) > _MEMO_CAP:
            kept.clear()
    # Each distinct list is checked when it first enters lifted.
    masks = []
    for l in inst.lists:
        m = lifted.get(l)
        if m is None:
            m = _mask_of(2 * a for a in l) * 3
            if m >> 2 * h.n:
                raise ValueError("list value outside the target")
            lifted[l] = m
        masks.append(m)
    if 0 in masks:
        return None
    nbrs = _target_nbrs(g, *rows, memos)
    if not _propagate(nbrs, masks, range(g.n), []):
        return None
    for comp in _components(nbrs):
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


def _by_sides(inst: Instance, o: Ordering, table: tuple, finish: _Finish) -> Optional[Solution]:
    """Solve inst against a target whose edges all join the two classes of
    the ordering o, one instance component at a time, over the places of o
    in table, the target's _rank_rows: bit r of a mask stands for order[r].
    Each try restricts the component's least vertex to one class, black
    (places from len(o.white_order)) then white, and runs arc consistency,
    whose fixpoint confines every other vertex to the class its distance
    from the least one calls for and wipes out a list on an odd cycle.
    finish then gets red, the component in increasing order, and the masks,
    and returns (vertex, place, switch bit) triples or None. red[v] lists
    each neighbour of v in increasing order, with 1 for a red edge: the
    instance's one signed adjacency. Absent when a component fails both."""
    order, place, uni, bic = table
    g = inst.g
    # Each distinct list is checked and turned into a mask of places once.
    as_mask: Dict[FrozenSet[int], int] = {}
    base = []
    for l in inst.lists:
        m = as_mask.get(l)
        if m is None:
            if any(a >= len(order) for a in l):
                raise ValueError("list value outside the target")
            m = as_mask[l] = sum(1 << place[a] for a in l)
        base.append(m)
    red = _parity_lists(g.n, ((u, v, c is RED) for u, v, c in g.edges))
    adj = [uni[a] | bic[a] for a in order]
    nbrs = _target_nbrs(g, adj, adj, [bic[a] for a in order], {})
    white = (1 << len(o.white_order)) - 1
    # One masks list for all components: a try resets only its own entries.
    masks = list(base)
    mapping = [-1] * g.n
    switch = [0] * g.n
    for comp in _components(nbrs):
        comp.sort()
        root = comp[0]
        for cls in (~white, white):
            for v in comp:
                masks[v] = base[v]
            masks[root] &= cls
            if masks[root] and _propagate(nbrs, masks, comp, []):
                result = finish(red, comp, masks)
                if result is not None:
                    break
        else:
            return None
        for v, r, p in result:
            mapping[v] = order[r]
            switch[v] = p
    return Solution(
        mapping=tuple(mapping), switching=Switching(v for v in range(g.n) if switch[v])
    )


_H1 = targets.build_h1()
_H1_ORDERING = ordering_for_cycle_target(targets.H1)
# Places 0-5 of H1: white's ground, long and short value, then black's: 0, 2, 5, 3, 1, 4.
_H1_TABLE = _rank_rows(_H1, _H1_ORDERING)


def solve_h1(inst: Instance) -> Optional[Solution]:
    """Region decomposition against the canonical 6-vertex unbalanced cycle
    target: side assignment, arc consistency, boundary grounding on {b, w},
    and one parity walk per component tying region choices to boundary
    switchings."""
    return _by_sides(inst, _H1_ORDERING, _H1_TABLE, _solve_h1_component)


def _solve_h1_component(red: _Signed, comp: List[int], masks: List[int]) -> _Assigned:
    """The finish of solve_h1 for one component, as _by_sides calls it, over
    H1's places; masks need only hold comp's masks."""
    hw = {v: int(masks[v] & 0b000111 != 0) for v in comp}
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
    # (places 0-4, 0-5, 1-3 or 2-3), so a region vertex k of class hw[k]
    # switches by sigma[k] ^ c and each ground neighbour across an edge of
    # red parity r by r ^ sigma[k] ^ c, where c is one bit per (region,
    # class): the bit of node len(boundary) + 2 * ridx + hw[k] in a walk
    # whose first nodes are the boundary vertices. A region's own edges then
    # ask for equal class bits on the long side {1, 4} and, across the red
    # edge, unequal ones on the short side {2, 5}. A region that fits one
    # side only is tied to it; one that fits both takes the long side unless
    # ground vertices of both classes decide. Every region fits a side:
    # across an interior edge long values support only long ones and short
    # only short, so after arc consistency a region has long values at every
    # vertex or at none, and likewise short ones; no list is empty.
    slot = {a: i for i, a in enumerate(boundary)}
    ties: List[Tuple[int, int, int]] = []
    for ridx, region in enumerate(regions):
        t_ok = all(masks[k] >> (4 - 3 * hw[k]) & 1 for k in region)
        s_ok = all(masks[k] >> (5 - 3 * hw[k]) & 1 for k in region)
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
        side = 4 if bit[node] == bit[node + 1] else 5
        for k in region:
            out.append((k, side - 3 * hw[k], sigma[k] ^ bit[node + hw[k]]))
    return out


def solve_ordered(
    inst: Instance, h: SignedGraph, o: Ordering, stats: Optional[dict] = None
) -> Optional[Solution]:
    """Exact decision for a semi-balanced target with a special min
    ordering o, without search: per instance component and side assignment,
    arc consistency over the places of o, then every vertex takes the least
    place left in its list, and one parity walk over the edges whose image
    is unicoloured finds the switching that gives each its image's sign; a
    conflict fails the side. stats["backtracks"] stays 0.

    o is checked as verify_min_ordering and verify_special check it, from
    the rank-row table the solve then reads: O(n + m) for the table, then
    O(|W|) and O(n) big-int operations for the two scans."""
    order, _, uni, bic = table = _rank_rows(h, o)
    if _min_violator(o, uni, bic) is not None or _special_violator(uni, bic) is not None:
        raise ValueError("ordering fails verification on the target")
    t = is_semi_balanced(h)
    if t is None:
        raise ValueError("target is not semi-balanced")
    if stats is not None:
        stats.setdefault("backtracks", 0)
    # Whether t flips the vertex at each place. t makes every unicoloured
    # edge blue, so one is red when t flips exactly one of its ends.
    flip_at = [int(a in t.flipped) for a in order]

    def finish(red: _Signed, comp: List[int], masks: List[int]) -> _Assigned:
        image = {v: (masks[v] & -masks[v]).bit_length() - 1 for v in comp}
        onto_uni = {v: [] for v in comp}
        for v in comp:
            r = image[v]
            row, fr = bic[order[r]], flip_at[r]
            for w, p in red[v]:
                s = image[w]
                if not row >> s & 1:
                    onto_uni[v].append((w, p ^ fr ^ flip_at[s]))
        found = _parity_walk(onto_uni, comp)
        if found is None:
            return None
        return [(v, image[v], found[0][v]) for v in comp]

    return _by_sides(inst, o, table, finish)


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
    colour = h._colour.get
    mapping = sol.mapping
    for u, v, c in g.edges:
        a, b = mapping[u], mapping[v]
        ic = colour((a, b) if a < b else (b, a))
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


def _solve_via_h1(target: SignedGraph, inst: Instance, o: Ordering) -> Optional[Solution]:
    """Solve against a target matching H1 as given, with o, the verdict's
    ordering: _H1_ORDERING pulled back through the alignment, so the
    target's places are H1's. One walk rooted at order[0], over unicoloured
    edges against H1's colours at the same places, gives the switching s the
    equivalence search finds; every vertex whose image is in s flips."""
    order, place, _, _ = table = _rank_rows(target, o)
    h1 = _H1_TABLE[0]
    s = _switching(target, (
        (u, v, c is not _H1.colour(h1[place[u]], h1[place[v]]))
        for u, v, c in target.edges if c is not BICOLOURED
    ), (order[0],)).flipped
    sol = _by_sides(inst, o, table, _solve_h1_component)
    return sol and Solution(sol.mapping, Switching(
        sol.switching.flipped ^ {v for v, a in enumerate(sol.mapping) if a in s}
    ))


def solve(
    target: SignedGraph, inst: Instance, alg: str = "auto", stats: Optional[dict] = None
) -> Optional[Solution]:
    """Decide inst against target by the route alg names: "oracle" for any
    target, or a route read off the target's verdict, from one classify
    call: h1 when the verdict matches the 6-vertex unbalanced cycle, over
    the places of the verdict's ordering, else ordered by the verdict's
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
            sol = _solve_via_h1(target, inst, verdict.ordering)
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
