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
from itertools import compress
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from .sgcore import (
    BICOLOURED, BLUE, RED, SignedGraph, Switching, _bits, _parity_lists, _parity_walk,
    _switching, is_semi_balanced,
)
from . import targets
from .classify import NP_COMPLETE, _rank_table, classify
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


def _sign_walks(
    nbrs: _Nbrs, red: List[int], masks: List[int], comp: List[int], y: List[int],
    stop: Sequence[int], start: Sequence[int],
) -> Optional[List[List[int]]]:
    """Parity walks over the support lists of _by_sides from each vertex of
    comp, in order, that y still marks unreached with -1. A root takes
    start[r], r the highest place in its mask; across an entry (w, rows) of
    nbrs[v], unless masks[w] meets stop[r] for v's highest place r, w takes
    y[v], flipped when rows is red. Returns the walks in root order, each in
    visiting order; absent when an entry disagrees."""
    walks = []
    for root in comp:
        if y[root] >= 0:
            continue
        y[root] = start[masks[root].bit_length() - 1]
        walk = [root]
        for v in walk:
            yv = y[v]
            row = stop[masks[v].bit_length() - 1]
            for w, rows, _ in nbrs[v]:
                if masks[w] & row:
                    continue
                p = yv ^ (rows is red)
                if y[w] < 0:
                    y[w] = p
                    walk.append(w)
                elif y[w] != p:
                    return None
        walks.append(walk)
    return walks


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


_Finish = Callable[[_Nbrs, List[int], List[int], List[int], List[int]], bool]


def _by_sides(inst: Instance, o: Ordering, table: tuple, finish: _Finish) -> Optional[Solution]:
    """Solve inst against a target whose edges all join the two classes of
    the ordering o, one instance component at a time, over the places of o
    in table, the target's _rank_rows: bit r of a mask stands for order[r].
    Each try restricts the component's least vertex to one class, black
    (places from len(o.white_order)) then white, and runs arc consistency,
    whose fixpoint confines every other vertex to the class its distance
    from the least one calls for and wipes out a list on an odd cycle.
    finish then gets the support lists nbrs, red, the component in
    increasing order, the masks and the switch bits; it pins the mask of
    every vertex of the component to one place and sets its switch bit, or
    returns False. nbrs[v] lists (u, rows, memo) for each neighbour u of v in
    increasing order, and rows is red exactly for a red edge: red and blue
    edges have tables of the same content, which share one memo. Absent when
    a component fails both."""
    order, place, uni, bic = table
    g = inst.g
    # Each distinct list is checked and turned into a mask of places once.
    bit = [1 << r for r in place]
    as_mask: Dict[FrozenSet[int], int] = {}
    base = []
    for l in inst.lists:
        m = as_mask.get(l)
        if m is None:
            if l and max(l) >= len(order):
                raise ValueError("list value outside the target")
            m = as_mask[l] = sum(map(bit.__getitem__, l))
        base.append(m)
    blue = [uni[a] | bic[a] for a in order]
    red = list(blue)
    memo: Dict[int, int] = {}
    nbrs = _target_nbrs(g, blue, red, [bic[a] for a in order], {id(blue): memo, id(red): memo})
    white = (1 << len(o.white_order)) - 1
    # One masks list for all components: a try resets only its own entries.
    masks = list(base)
    switch = [0] * g.n
    for comp in _components(nbrs):
        comp.sort()
        root = comp[0]
        for cls in (~white, white):
            for v in comp:
                masks[v] = base[v]
            masks[root] &= cls
            if masks[root] and _propagate(nbrs, masks, comp, []) and finish(
                nbrs, red, comp, masks, switch
            ):
                break
        else:
            return None
    return Solution(
        mapping=tuple([order[m.bit_length() - 1] for m in masks]),
        switching=Switching(compress(range(g.n), switch)),
    )


_H1 = targets.build_h1()


def solve_h1(inst: Instance) -> Optional[Solution]:
    """Region decomposition against the canonical 6-vertex unbalanced cycle
    target: side assignment, arc consistency, boundary grounding on {b, w},
    and one parity walk per component tying region choices to boundary
    switchings. It is solve's H1 route on that target."""
    return solve(_H1, inst, "h1")


def _solve_h1_component(
    nbrs: _Nbrs, red: List[int], comp: List[int], masks: List[int], switch: List[int]
) -> bool:
    """The finish of solve_h1 for one component, as _by_sides calls it, over
    H1's places; masks need only hold comp's masks."""
    # Boundary vertices have a ground value (place 0 or 3) and take it. Each
    # has a slot, and each component of the interior, a region, has two
    # after those. Until the tie walk, switch holds the slot of a boundary
    # vertex and sigma of any other: its red parity from the least vertex
    # of its region.
    boundary = [v for v in comp if masks[v] & 0b001001]
    for v in comp:
        switch[v] = -1
    for i, a in enumerate(boundary):
        switch[a] = i
    regions = _sign_walks(nbrs, red, masks, comp, switch, (0b001001,) * 6, (0,) * 6)
    if regions is None:
        return False
    size = len(boundary) + 2 * len(regions)
    nodes = range(len(boundary), size, 2)

    # Every edge from a region to a ground vertex maps onto a blue edge of H1
    # (places 0-4, 0-5, 1-3 or 2-3), so a region vertex k of class hw (1 for
    # white) switches by sigma[k] ^ c and each ground neighbour across an
    # edge of red parity r by r ^ sigma[k] ^ c, where c is one bit per
    # (region, class): the bit of the region's slot + hw in a walk whose
    # first nodes are the boundary slots. A region's own edges then ask for
    # equal class bits on the long side {1, 4} and, across the red edge,
    # unequal ones on the short side {2, 5}. A region that fits one side
    # only is tied to it; one that fits both takes the long side unless
    # ground vertices of both classes decide. Every region fits a side:
    # across an interior edge long values support only long ones and short
    # only short, so after arc consistency a region has long values at every
    # vertex or at none, and likewise short ones; no list is empty.
    ties: List[Tuple[int, int, int]] = []
    for node, region in zip(nodes, regions):
        t_ok = s_ok = True
        touched = set()
        for k in region:
            m = masks[k]
            hw = int(m & 0b000111 != 0)
            t_ok &= m >> (4 - 3 * hw) & 1 == 1
            s_ok &= m >> (5 - 3 * hw) & 1 == 1
            for a, rows, _ in nbrs[k]:
                if masks[a] & 0b001001:
                    ties.append((switch[a], node + hw, (rows is red) ^ switch[k]))
                    touched.add(hw)
        if t_ok != s_ok or len(touched) < 2:
            ties.append((node, node + 1, not t_ok))

    found = _parity_walk(_parity_lists(size, ties), range(size))
    if found is None:
        return False
    bit = found[0]
    for a in boundary:
        masks[a] = 0b000001 if masks[a] & 1 else 0b001000
        switch[a] = bit[switch[a]]
    for node, region in zip(nodes, regions):
        side = 4 if bit[node] == bit[node + 1] else 5
        for k in region:
            hw = int(masks[k] & 0b000111 != 0)
            masks[k] = 1 << (side - 3 * hw)
            switch[k] ^= bit[node + hw]
    return True


def solve_ordered(
    inst: Instance, h: SignedGraph, o: Ordering, stats: Optional[dict] = None,
    *, switching: Optional[Switching] = None, _table: Optional[tuple] = None,
) -> Optional[Solution]:
    """Exact decision for a semi-balanced target with a special min
    ordering o, without search: per instance component and side assignment,
    arc consistency over the places of o, then every vertex takes the least
    place left in its list, and one parity walk over the edges whose image
    is unicoloured finds the switching that gives each its image's sign; a
    conflict fails the side. stats["backtracks"] stays 0.

    o is checked as verify_min_ordering and verify_special check it, from
    the rank-row table the solve then reads: O(n + m) for the table, then
    O(|W|) and O(n) big-int operations for the two scans. Then
    is_semi_balanced checks h and finds the switching the finish reads,
    unless switching, one that makes every unicoloured edge of h blue, as a
    P verdict carries, is given; it is trusted. Either of a connected h's
    two such switchings gives the same solution. solve passes _table, a
    template match's table read off the template, trusted likewise."""
    order, _, uni, bic = table = _rank_rows(h, o) if _table is None else _table
    if _min_violator(o, uni, bic) is not None or _special_violator(uni, bic) is not None:
        raise ValueError("ordering fails verification on the target")
    t = is_semi_balanced(h) if switching is None else switching
    if t is None:
        raise ValueError("target is not semi-balanced")
    if stats is not None:
        stats.setdefault("backtracks", 0)
    # Whether t flips the vertex at each place. t makes every unicoloured
    # edge blue, so one is red when t flips exactly one of its ends.
    flip_at = [int(a in t.flipped) for a in order]
    bic_at = [bic[a] for a in order]

    # Every vertex takes its least place. With y the switch bit xor flip_at
    # of the place, an edge onto a unicoloured image edge asks y to differ
    # across it exactly when it is red. switch holds y until the walks end,
    # and each walk's root has switch bit 0.
    def finish(nbrs: _Nbrs, red: List[int], comp: List[int], masks: List[int],
               switch: List[int]) -> bool:
        for v in comp:
            m = masks[v]
            masks[v] = m & -m
            switch[v] = -1
        if _sign_walks(nbrs, red, masks, comp, switch, bic_at, flip_at) is None:
            return False
        for v in comp:
            switch[v] ^= flip_at[masks[v].bit_length() - 1]
        return True

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


def _solve_via_h1(target: SignedGraph, inst: Instance, o: Ordering, table: tuple) -> Optional[Solution]:
    """Solve against a target matching H1 as given, with o, the verdict's
    ordering: H1's pulled back through the alignment, so the target's
    places are H1's, and table, its _rank_rows. One walk rooted at
    order[0], over unicoloured edges against H1's colours at the same
    places, gives the switching s the equivalence search finds; every
    vertex whose image is in s flips."""
    order, place, _, _ = table
    # Places 0-5 of H1: white's ground, long and short value, then black's: 0, 2, 5, 3, 1, 4.
    h1o = ordering_for_cycle_target(targets.H1)
    h1 = h1o.white_order + h1o.black_order
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
    special min ordering and, where it carries one, its switching. "auto"
    takes that route; "h1" and "ordered" only check that it is the one they
    name. Raises ValueError when the route does not apply to the target, or
    when a solution fails check_solution."""
    if stats is not None:
        stats.setdefault("backtracks", 0)
    if alg == "oracle":
        sol = solve_oracle(inst, target, stats)
    elif alg in ("auto", "h1", "ordered"):
        verdict = classify(target)
        table = _rank_table(target, verdict)
        if verdict.reason == "MatchesH1" and alg != "ordered":
            sol = _solve_via_h1(target, inst, verdict.ordering, table)
        elif alg == "h1":
            raise ValueError("target is not equivalent to the 6-vertex unbalanced cycle")
        elif verdict.complexity == NP_COMPLETE:
            if alg == "ordered":
                raise ValueError("target is NP-complete; no ordering exists")
            raise ValueError(
                "target is NP-complete (%s); rerun with --alg oracle" % verdict.reason
            )
        else:
            sol = solve_ordered(
                inst, target, verdict.ordering, stats, switching=verdict.switching, _table=table
            )
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
