"""Naive reference implementations and generators shared by the tests.

Every oracle here prefers clarity over speed: exhaustive loops straight
from the definitions, no bitmask tricks, no pruning beyond what keeps the
test sizes fast. The library must agree with these on every input tried.
"""

import gc
import itertools
import time
from collections import deque
from typing import List, Optional, Tuple

from hypothesis import strategies as st

from sephom import (
    BICOLOURED,
    BLUE,
    RED,
    Bipartition,
    SignedGraph,
    Switching,
    apply_switching,
    build_hl,
    relabel,
)
from sephom.files import COLOUR_SYMBOLS, ParseError
from sephom.hardness import QuadCsp
from sephom.ordering import (
    Ordering,
    ordering_for_cycle_target,
    verify_min_ordering,
    verify_special,
)
from sephom.separable import (
    CycleForm,
    LEFT,
    LEFT_RIGHT_SEGMENTED,
    LEFT_SEGMENTED,
    RIGHT,
    RIGHT_SEGMENTED,
    TRIVIAL_PATH,
    PathForm,
    find_segments,
)
from sephom.sgcore import _bits, bipartition
from sephom.solver import Instance
from sephom.witness import Chain, InvertiblePair, _uni_masks


def all_switchings(n):
    """Every vertex subset, as a Switching."""
    for bits in range(1 << n):
        yield Switching(v for v in range(n) if bits >> v & 1)


def brute_balanced(g):
    """Some switching making every edge blue, by trying all of them."""
    for s in all_switchings(g.n):
        if all(c is BLUE for _, _, c in apply_switching(g, s).edges):
            return s
    return None


def brute_anti_balanced(g):
    """Some switching making every edge red, by trying all of them."""
    for s in all_switchings(g.n):
        if all(c is RED for _, _, c in apply_switching(g, s).edges):
            return s
    return None


def brute_semi_balanced(g):
    """Some switching making every unicoloured edge blue."""
    for s in all_switchings(g.n):
        sw = apply_switching(g, s)
        if all(c is BLUE for _, _, c in sw.edges if c is not BICOLOURED):
            return s
    return None


def brute_chain_exists(g):
    """Chain existence straight from the definition.

    A chain is a walk pair U = u, u_1..u_{k-1}, v and D = u, d_1..d_{k-1}, v
    with k >= 2 where u u_1 and d_{k-1} v are unicoloured, u d_1 and
    u_{k-1} v bicoloured, and each interior step either advances on edges
    with d_i u_{i+1} a non-edge or on bicoloured edges with d_i u_{i+1} not
    bicoloured. Interior steps do not depend on the position, so closure
    over the pairs (u_i, d_i) decides existence.
    """

    def uni(x, y):
        c = g.colour(x, y)
        return c is not None and c is not BICOLOURED

    def bic(x, y):
        return g.colour(x, y) is BICOLOURED

    seen = set()
    for u in range(g.n):
        for x in range(g.n):
            for y in range(g.n):
                if uni(u, x) and bic(u, y):
                    seen.add((x, y))
    frontier = sorted(seen)
    while frontier:
        fresh = []
        for x, y in frontier:
            if any(bic(x, v) and uni(y, v) for v in range(g.n)):
                return True
            for xp in range(g.n):
                for yp in range(g.n):
                    case_a = (
                        g.adjacent(x, xp)
                        and g.adjacent(y, yp)
                        and not g.adjacent(y, xp)
                    )
                    case_b = bic(x, xp) and bic(y, yp) and not bic(y, xp)
                    if (case_a or case_b) and (xp, yp) not in seen:
                        seen.add((xp, yp))
                        fresh.append((xp, yp))
        frontier = fresh
    return False


def brute_chain_min_steps(g):
    """Fewest steps k of any chain, or None.

    Same closure as brute_chain_exists, walked layer by layer: seeds sit at
    position 1, each layer adds one interior step, and a chain accepted after
    d expansions has k = d + 2.
    """

    def uni(x, y):
        c = g.colour(x, y)
        return c is not None and c is not BICOLOURED

    def bic(x, y):
        return g.colour(x, y) is BICOLOURED

    seen = set()
    for u in range(g.n):
        for x in range(g.n):
            for y in range(g.n):
                if uni(u, x) and bic(u, y):
                    seen.add((x, y))
    frontier = sorted(seen)
    depth = 0
    while frontier:
        fresh = []
        for x, y in frontier:
            if any(bic(x, v) and uni(y, v) for v in range(g.n)):
                return depth + 2
            for xp in range(g.n):
                for yp in range(g.n):
                    case_a = (
                        g.adjacent(x, xp)
                        and g.adjacent(y, yp)
                        and not g.adjacent(y, xp)
                    )
                    case_b = bic(x, xp) and bic(y, yp) and not bic(y, xp)
                    if (case_a or case_b) and (xp, yp) not in seen:
                        seen.add((xp, yp))
                        fresh.append((xp, yp))
        frontier = fresh
        depth += 1
    return None


def brute_invertible_pair(g):
    """Least (a, b), a < b on one side of ref_bipartition, with (b, a)
    reachable from (a, b) and (a, b) from (b, a) in the pair digraph, or
    None; non-bipartite graphs have none.

    A step (x, y) -> (x', y') needs xx' and yy' to be edges and yx' not to
    be one; each reachability question is its own plain breadth-first search.
    """
    part = ref_bipartition(g)
    if part is None:
        return None

    def reaches(src, dst):
        seen = {src}
        queue = deque([src])
        while queue:
            x, y = queue.popleft()
            for xp in range(g.n):
                for yp in range(g.n):
                    step = (
                        g.adjacent(x, xp)
                        and g.adjacent(y, yp)
                        and not g.adjacent(y, xp)
                    )
                    if step and (xp, yp) not in seen:
                        seen.add((xp, yp))
                        queue.append((xp, yp))
        return dst in seen

    for a in range(g.n):
        for b in range(a + 1, g.n):
            if part.side(a) != part.side(b):
                continue
            if reaches((a, b), (b, a)) and reaches((b, a), (a, b)):
                return (a, b)
    return None


# ref_find_chain and ref_find_invertible_pair are the finders as they were
# before the search moved to neighbour masks: one tuple state per step, and
# a sorted successor list per expanded state. The library must return the
# same values, parents and ties included.


def _ref_steps(mask, x, y):
    """Pair-digraph steps (x, y) -> (x', y') with xx' and yy' in ``mask``
    and yx' not, in ascending order."""
    return [(xp, yp) for xp in _bits(mask[x] & ~mask[y]) for yp in _bits(mask[y])]


def _ref_shortest(starts, successors, goal):
    """States of a shortest walk from a start to a goal state, by
    breadth-first search; ties go to the earliest start and successor.
    The queue is FIFO, so testing the goal when a state is queued finds the
    state a test on dequeue would find, with the same parent."""
    parent = {}
    queue = deque()
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


def ref_find_chain(g):
    """Shortest chain via breadth-first search on (u_i, d_i) states: an
    interior step is an edge step or a bicoloured step of the pair digraph."""
    uni = _uni_masks(g)
    bic = g.bic_mask
    adj = g.adj_mask
    origin = {}
    for u in range(g.n):
        for x in _bits(uni[u]):
            for y in _bits(bic[u]):
                origin.setdefault((x, y), u)
    path = _ref_shortest(
        origin,
        lambda s: sorted(set(_ref_steps(adj, *s)) | set(_ref_steps(bic, *s))),
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


def ref_find_invertible_pair(g):
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
        (x, y): _ref_steps(g.adj_mask, x, y)
        for x in range(n)
        for y in range(n)
        if x != y and part.side(x) == part.side(y)
    }
    # Strong components by Kosaraju, without a reversed digraph: steps
    # (x,y) -> (x',y') and (y',x') -> (y,x) both say that xx' and yy' are
    # edges and yx' is not, so the predecessors of (x,y) are the swapped
    # successors of (y,x).
    seen = set()
    order = []
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
    comp = {}
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
    there = _ref_shortest([(a, b)], steps.__getitem__, lambda s: s == (b, a))
    back = _ref_shortest([(b, a)], steps.__getitem__, lambda s: s == (a, b))
    closed = there + back[1:]
    return InvertiblePair(
        a=a,
        b=b,
        U=tuple(x for x, _ in closed),
        D=tuple(y for _, y in closed),
    )


def brute_special_min_ordering(g):
    """Some special min ordering of g, by trying every pair of class orders
    with both verifiers; None when there is none or g is not bipartite."""
    part = ref_bipartition(g)
    if part is None:
        return None
    for black in itertools.permutations(sorted(part.black)):
        for white in itertools.permutations(sorted(part.white)):
            o = Ordering(black_order=black, white_order=white)
            if verify_special(g, o) is None and verify_min_ordering(g, o) is None:
                return o
    return None


# The two 4-cycle pattern finders, kept here since classify reads every
# witness from find_chain and find_invertible_pair.


def find_alternating_4cycle(g: SignedGraph) -> Optional[Tuple[int, int, int, int]]:
    """First (v1, v2, v3, v4) with v1v2, v3v4 bicoloured and v2v3, v4v1
    unicoloured, in lexicographic order."""
    uni = _uni_masks(g)
    bic = g.bic_mask
    for v1 in range(g.n):
        for v2 in _bits(bic[v1]):
            for v3 in _bits(uni[v2]):
                if v3 == v1:
                    continue
                for v4 in _bits(bic[v3] & uni[v1]):
                    if v4 != v2:
                        return (v1, v2, v3, v4)
    return None


def find_4cycle_pair(
    g: SignedGraph,
) -> Optional[Tuple[int, int, int, int, int, int, int]]:
    """First (v1..v7): 4-cycles v1v2v3v4 and v1v5v6v7 sharing only v1, with
    v1v2, v1v5 bicoloured, the other six cycle edges unicoloured, and v3v5,
    v2v6 either both non-edges or both bicoloured."""
    uni = _uni_masks(g)
    bic = g.bic_mask
    for v1 in range(g.n):
        triples: List[Tuple[int, int, int]] = []
        for v2 in _bits(bic[v1]):
            for v3 in _bits(uni[v2]):
                if v3 == v1:
                    continue
                for v4 in _bits(uni[v3] & uni[v1]):
                    if v4 != v2:
                        triples.append((v2, v3, v4))
        for t1 in triples:
            for t2 in triples:
                if set(t1) & set(t2):
                    continue
                v2, v3, _ = t1
                v5, v6, _ = t2
                c35 = g.colour(v3, v5)
                c26 = g.colour(v2, v6)
                if (c35 is None and c26 is None) or (
                    c35 is BICOLOURED and c26 is BICOLOURED
                ):
                    return (v1,) + t1 + t2
    return None


def brute_min_ordering_violation(g, o):
    """First (x, x', y, y') by vertex id breaking the min-ordering rule, by
    scanning every quadruple x < x' white and y < y' black in o: xy' and
    x'y edges with xy a non-edge. o must split the edges between its
    classes."""
    w, b = o.white_order, o.black_order
    worst = None
    for i, x in enumerate(w):
        for xp in w[i + 1 :]:
            for j, y in enumerate(b):
                for yp in b[j + 1 :]:
                    if (
                        g.adjacent(x, yp)
                        and g.adjacent(xp, y)
                        and not g.adjacent(x, y)
                    ):
                        cand = (x, xp, y, yp)
                        if worst is None or cand < worst:
                            worst = cand
    return worst


def brute_special_violation(g, o):
    """First (v, bicoloured nbr, unicoloured nbr) by vertex id with the
    bicoloured neighbour placed after the unicoloured one, by comparing every
    such pair of neighbours."""
    pos = {v: i for i, v in enumerate(o.white_order)}
    pos.update({v: i for i, v in enumerate(o.black_order)})
    worst = None
    for v in range(g.n):
        for x in g.neighbours(v):
            if g.colour(v, x) is not BICOLOURED:
                continue
            for y in g.neighbours(v):
                if g.colour(v, y) is BICOLOURED:
                    continue
                if pos[x] > pos[y]:
                    cand = (v, x, y)
                    if worst is None or cand < worst:
                        worst = cand
    return worst


def hl61_with_ends_swapped():
    """Hl(61) and its recipe ordering with the first and last whites swapped,
    which breaks both the min property and the bicoloured-first rule."""
    o = ordering_for_cycle_target("Hl", 61)
    w = list(o.white_order)
    w[0], w[-1] = w[-1], w[0]
    return build_hl(61), Ordering(o.black_order, tuple(w))


def ref_uniform_switching(g, target):
    """Switching under which every unicoloured edge gets the target colour:
    a depth-first parity walk from the least vertex of each component."""
    assign = [-1] * g.n
    uni_adj = [[] for _ in range(g.n)]
    for u, v, c in g.edges:
        if c.unicoloured:
            uni_adj[u].append((v, c))
            uni_adj[v].append((u, c))
    for root in range(g.n):
        if assign[root] >= 0:
            continue
        assign[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, c in uni_adj[u]:
                want = assign[u] ^ (c is not target)
                if assign[v] < 0:
                    assign[v] = want
                    stack.append(v)
                elif assign[v] != want:
                    return None
    return Switching(v for v in range(g.n) if assign[v] == 1)


def ref_matching_switching(g, h):
    """Switching of g making it equal to h, which has the same vertex ids
    and structure, by a depth-first parity walk."""
    assign = [-1] * g.n
    uni = [[] for _ in range(g.n)]
    for u, v, c in g.edges:
        if c.unicoloured:
            uni[u].append((v, c is not h.colour(u, v)))
            uni[v].append((u, c is not h.colour(u, v)))
    for root in range(g.n):
        if assign[root] >= 0:
            continue
        assign[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, diff in uni[u]:
                want = assign[u] ^ diff
                if assign[v] < 0:
                    assign[v] = want
                    stack.append(v)
                elif assign[v] != want:
                    return None
    return Switching(v for v in range(g.n) if assign[v] == 1)


def ref_bipartition(g):
    """2-colouring with the least vertex of each component white, by a
    depth-first walk; None when the underlying graph has an odd cycle."""
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in g.neighbours(u):
                if side[v] < 0:
                    side[v] = side[u] ^ 1
                    stack.append(v)
                elif side[v] == side[u]:
                    return None
    return Bipartition(
        black=frozenset(v for v in range(g.n) if side[v] == 1),
        white=frozenset(v for v in range(g.n) if side[v] == 0),
    )


def _ref_uni_adjacency(g):
    adj = [[] for _ in range(g.n)]
    for u, v, c in g.edges:
        if c is not BICOLOURED:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _ref_bic_positions(g, order):
    pos = {v: i for i, v in enumerate(order)}
    return frozenset(
        (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.bicoloured_edges()
    )


def _ref_trace(uni, first):
    """The walk along uni from first towards its least neighbour that never
    steps straight back, up to a vertex with no other neighbour or back at
    first; uni must have no degree above 2."""
    order = [first, min(uni[first])]
    while True:
        nxt = [w for w in uni[order[-1]] if w != order[-2]]
        if not nxt or nxt[0] == first:
            return tuple(order)
        order.append(nxt[0])


def ref_path_form(g):
    """The spanning unicoloured path from its least end, checked as the
    definition reads: n - 1 unicoloured edges, two ends of degree 1, no
    degree above 2, and a walk that reaches every vertex."""
    if g.n == 0:
        return None
    uni = _ref_uni_adjacency(g)
    if sum(len(a) for a in uni) != 2 * (g.n - 1):
        return None
    if g.n == 1:
        return PathForm((0,), _ref_bic_positions(g, (0,)))
    ends = [v for v in range(g.n) if len(uni[v]) == 1]
    if len(ends) != 2 or any(len(a) > 2 for a in uni):
        return None
    order = _ref_trace(uni, min(ends))
    if len(order) != g.n:
        return None
    return PathForm(order, _ref_bic_positions(g, order))


def ref_cycle_form(g):
    """The spanning unicoloured cycle from 0 towards its least neighbour,
    with its sign as the product of the signs of the cycle's own edges."""
    if g.n < 3:
        return None
    uni = _ref_uni_adjacency(g)
    if any(len(a) != 2 for a in uni):
        return None
    order = _ref_trace(uni, 0)
    if len(order) != g.n:
        return None
    bit = 0
    for i, u in enumerate(order):
        bit ^= g.colour(u, order[(i + 1) % g.n]) is RED
    return CycleForm(order, "-" if bit else "+", _ref_bic_positions(g, order))


def ref_components(g, vertices=None):
    """Components of the subgraph induced on vertices (all by default), each
    sorted, ordered by least vertex; a breadth-first walk."""
    pool = set(range(g.n)) if vertices is None else set(vertices)
    comps = []
    seen = set()
    for start in sorted(pool):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbours(v):
                if w in pool and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _ref_forward_closure(s, n):
    return {(f, t) for f in s.forward_sources() for t in range(f + 3, n, 2)}


def _ref_backward_closure(s):
    return {(t, h) for h in s.backward_sources() for t in range(h - 3, -1, -2)}


def ref_leaning(p, s):
    """Leaning labels of segment s, edge by edge from its sources."""
    n = len(p.order)
    labels = set()
    if all(
        (f, t) in p.bic
        for f in s.forward_sources()
        for t in range(f + 3, n, 2)
    ):
        labels.add(RIGHT)
    if all(
        (t, h) in p.bic
        for h in s.backward_sources()
        for t in range(h - 3, -1, -2)
    ):
        labels.add(LEFT)
    return frozenset(labels)


def ref_matching_kinds(p):
    """Segmented kinds matching p.bic, with every mandated set built as a
    union of per-segment closures."""
    n = len(p.order)
    found = {}
    if not p.bic:
        found[TRIVIAL_PATH] = None
        return found
    segments = find_segments(p)
    if not segments:
        return found
    starts = sorted(i for i, j in p.bic if j == i + 3)
    if any(b - a == 1 for a, b in zip(starts, starts[1:])):
        return found
    right = set().union(*(_ref_forward_closure(s, n) for s in segments))
    if right == p.bic:
        found[RIGHT_SEGMENTED] = None
    left = set().union(*(_ref_backward_closure(s) for s in segments))
    if left == p.bic:
        found[LEFT_SEGMENTED] = None
    for pivot in segments:
        mandated = set()
        for s in segments:
            if s.start <= pivot.start:
                mandated |= _ref_backward_closure(s)
            if s.start >= pivot.start:
                mandated |= _ref_forward_closure(s, n)
        mandated |= {
            (src, tgt)
            for src in range(pivot.start - 2, -1, -2)
            for tgt in range(pivot.end + 2, n, 2)
        }
        if mandated == p.bic and LEFT_RIGHT_SEGMENTED not in found:
            found[LEFT_RIGHT_SEGMENTED] = pivot
    return found


def ref_tokenize(text):
    """Lines of (token, 1-based column), each column found as it is read;
    '#' starts a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        if hash_at >= 0:
            raw = raw[:hash_at]
        tokens = []
        col = 0
        for tok in raw.split():
            col = raw.index(tok, col)
            tokens.append((tok, col + 1))
            col += len(tok)
        if tokens:
            out.append((lineno, tokens))
    return out


def _ref_int(lineno, tok, col, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected {what}, got {tok!r}") from None


def _ref_graph_lines(lines):
    if not lines:
        raise ParseError(1, 1, "empty input, expected 'sg <n>' header")
    lineno, tokens = lines[0]
    if tokens[0][0] != "sg":
        raise ParseError(lineno, tokens[0][1], "expected 'sg <n>' header")
    if len(tokens) != 2:
        raise ParseError(lineno, tokens[0][1], "header takes exactly one count")
    n = _ref_int(lineno, tokens[1][0], tokens[1][1], "a vertex count")
    if n < 0:
        raise ParseError(lineno, tokens[1][1], "vertex count must be nonnegative")
    edges = []
    seen = set()
    rest = []
    for lineno, tokens in lines[1:]:
        if tokens[0][0] != "e":
            rest.append((lineno, tokens))
            continue
        if len(tokens) != 4:
            raise ParseError(lineno, tokens[0][1], "edge lines are 'e <u> <v> <c>'")
        u = _ref_int(lineno, tokens[1][0], tokens[1][1], "a vertex id")
        v = _ref_int(lineno, tokens[2][0], tokens[2][1], "a vertex id")
        sym, col = tokens[3]
        if sym not in COLOUR_SYMBOLS:
            raise ParseError(lineno, col, f"edge colour must be one of + - *, got {sym!r}")
        for w, c in ((u, tokens[1][1]), (v, tokens[2][1])):
            if not 0 <= w < n:
                raise ParseError(lineno, c, f"vertex id {w} out of range 0..{n - 1}")
        if u == v:
            raise ParseError(lineno, tokens[1][1], f"loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(lineno, tokens[1][1], f"duplicate edge {u}-{v}")
        seen.add(key)
        edges.append((key[0], key[1], COLOUR_SYMBOLS[sym]))
    return SignedGraph(n, edges), rest


def ref_parse_graph(text):
    """parse_graph over ref_tokenize."""
    g, rest = _ref_graph_lines(ref_tokenize(text))
    if rest:
        lineno, tokens = rest[0]
        raise ParseError(lineno, tokens[0][1], f"unexpected directive {tokens[0][0]!r}")
    return g


def ref_parse_instance(text, target_n):
    """parse_instance over ref_tokenize."""
    g, rest = _ref_graph_lines(ref_tokenize(text))
    lists = [None] * g.n
    for lineno, tokens in rest:
        if tokens[0][0] != "l":
            raise ParseError(lineno, tokens[0][1], f"unexpected directive {tokens[0][0]!r}")
        if len(tokens) < 2:
            raise ParseError(lineno, tokens[0][1], "list lines are 'l <v> <t1> <t2> ...'")
        v = _ref_int(lineno, tokens[1][0], tokens[1][1], "a vertex id")
        if not 0 <= v < g.n:
            raise ParseError(lineno, tokens[1][1], f"vertex id {v} out of range 0..{g.n - 1}")
        if lists[v] is not None:
            raise ParseError(lineno, tokens[1][1], f"duplicate list for vertex {v}")
        values = []
        for tok, col in tokens[2:]:
            t = _ref_int(lineno, tok, col, "a target vertex id")
            if not 0 <= t < target_n:
                raise ParseError(lineno, col, f"target id {t} out of range 0..{target_n - 1}")
            values.append(t)
        lists[v] = frozenset(values)
    full = frozenset(range(target_n))
    return Instance(g, tuple(full if l is None else l for l in lists))


def ref_parse_quadcsp(text):
    """parse_quadcsp over ref_tokenize."""
    names = []
    quads = []
    for lineno, tokens in ref_tokenize(text):
        kind, col = tokens[0]
        if kind == "v":
            if len(tokens) != 2:
                raise ParseError(lineno, col, "variable lines are 'v <name>'")
            name = tokens[1][0]
            if name in names:
                raise ParseError(lineno, tokens[1][1], f"duplicate variable {name!r}")
            names.append(name)
        elif kind == "q":
            if len(tokens) != 5:
                raise ParseError(lineno, col, "quadruple lines are 'q <a> <b> <c> <d>'")
            for tok, tcol in tokens[1:]:
                if tok not in names:
                    raise ParseError(lineno, tcol, f"undeclared variable {tok!r}")
            quads.append(tuple(tok for tok, _ in tokens[1:]))
        else:
            raise ParseError(lineno, col, f"unexpected directive {kind!r}")
    return QuadCsp(tuple(names), tuple(quads))


def brute_gf2(variables, equations):
    """One satisfying GF(2) assignment by trying every combination."""
    names = list(variables)
    assert len(names) <= 20, "oracle limited to 20 variables"
    for bits in range(1 << len(names)):
        value = {v: bits >> i & 1 for i, v in enumerate(names)}
        if all(sum(value[v] for v in lhs) % 2 == rhs for lhs, rhs in equations):
            return value
    return None


def solution_errors(inst, h, mapping, flipped):
    """Violations of the homomorphism conditions, from the definition.

    A solution switches the instance at the flipped set, then maps every
    edge onto a target edge: bicoloured edges onto bicoloured edges, and a
    unicoloured edge of colour c onto a bicoloured edge or one of colour c.
    """
    flipped = set(flipped)
    errors = []
    for v, a in enumerate(mapping):
        if a not in inst.lists[v]:
            errors.append("value of %d not in its list" % v)
    for u, v, c in inst.g.edges:
        if c is not BICOLOURED and (u in flipped) != (v in flipped):
            c = RED if c is BLUE else BLUE
        ic = h.colour(mapping[u], mapping[v])
        if ic is None:
            errors.append("edge %d-%d maps to a non-edge" % (u, v))
        elif c is BICOLOURED:
            if ic is not BICOLOURED:
                errors.append("bicoloured edge %d-%d maps unicoloured" % (u, v))
        elif ic is not BICOLOURED and ic is not c:
            errors.append("edge %d-%d maps to the wrong sign" % (u, v))
    return errors


def brute_lhom(inst, h):
    """Exhaustive list homomorphism search over all switchings and maps."""
    g = inst.g
    assert g.n <= 12, "oracle limited to 12 vertices"
    domains = [sorted(l) for l in inst.lists]
    if any(not d for d in domains):
        return None
    for bits in range(1 << g.n):
        flipped = frozenset(v for v in range(g.n) if bits >> v & 1)
        for mapping in itertools.product(*domains):
            if not solution_errors(inst, h, mapping, flipped):
                return mapping, flipped
    return None


def brute_lhom_all(inst, h):
    """Every solution, as (mapping, flipped) pairs."""
    g = inst.g
    assert g.n <= 12, "oracle limited to 12 vertices"
    domains = [sorted(l) for l in inst.lists]
    if any(not d for d in domains):
        return
    for bits in range(1 << g.n):
        flipped = frozenset(v for v in range(g.n) if bits >> v & 1)
        for mapping in itertools.product(*domains):
            if not solution_errors(inst, h, mapping, flipped):
                yield mapping, flipped


def naive_arc_consistency(inst, h):
    """Arc consistency by repeated scanning over plain sets."""
    lists = [set(l) for l in inst.lists]
    changed = True
    while changed:
        changed = False
        for u, v, c in inst.g.edges:
            for x, y in ((u, v), (v, u)):
                keep = set()
                for a in lists[x]:
                    for b in lists[y]:
                        ic = h.colour(a, b)
                        if ic is None:
                            continue
                        if c is BICOLOURED and ic is not BICOLOURED:
                            continue
                        keep.add(a)
                        break
                if keep != lists[x]:
                    lists[x] = keep
                    changed = True
    if any(not l for l in lists):
        return None
    return tuple(frozenset(l) for l in lists)


def random_signed_graph(rng, n, p_edge=0.5, p_bic=0.25, p_red=0.25):
    """Random irreflexive signed graph on n vertices."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= p_edge:
                continue
            r = rng.random()
            if r < p_bic:
                colour = BICOLOURED
            elif r < p_bic + p_red:
                colour = RED
            else:
                colour = BLUE
            edges.append((u, v, colour))
    return SignedGraph(n, edges)


def random_bipartite_signed_graph(rng, n, p_edge=0.5, p_bic=0.25, p_red=0.25):
    """Random signed graph whose underlying graph is bipartite."""
    side = [rng.randrange(2) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if side[u] == side[v] or rng.random() >= p_edge:
                continue
            r = rng.random()
            if r < p_bic:
                colour = BICOLOURED
            elif r < p_bic + p_red:
                colour = RED
            else:
                colour = BLUE
            edges.append((u, v, colour))
    return SignedGraph(n, edges)


def random_lists(rng, n, target_n, max_size=3):
    return [
        frozenset(rng.sample(range(target_n), rng.randint(1, min(max_size, target_n))))
        for _ in range(n)
    ]


def random_instance(rng, n, h, p_edge=0.4, bipartite=False, max_list=3):
    maker = random_bipartite_signed_graph if bipartite else random_signed_graph
    g = maker(rng, n, p_edge)
    return Instance(g, random_lists(rng, n, h.n, max_list))


def planted_instance(rng, h, n, extra, decoys):
    """A connected instance on n vertices that a random map and switching
    solve. A random tree maps each vertex to a neighbour of its parent's
    image, and of extra more random pairs, those the map sends onto an edge
    are kept. Each edge takes the colour the switched map needs (any colour
    onto a bicoloured edge); each list holds the image and up to decoys
    other target vertices."""
    nbrs = [[b for b in range(h.n) if h.adjacent(a, b)] for a in range(h.n)]
    img = [rng.choice([a for a in range(h.n) if nbrs[a]])]
    pairs = []
    for v in range(1, n):
        u = rng.randrange(v)
        img.append(rng.choice(nbrs[img[u]]))
        pairs.append((u, v))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if h.adjacent(img[u], img[v]):
            pairs.append((min(u, v), max(u, v)))
    flip = [rng.randrange(2) for _ in range(n)]
    edges = {}
    for u, v in pairs:
        c = h.colour(img[u], img[v])
        if c is BICOLOURED:
            c = rng.choice((BLUE, RED, BICOLOURED))
        elif flip[u] != flip[v]:
            c = RED if c is BLUE else BLUE
        edges.setdefault((u, v), c)
    lists = [{a, *rng.sample(range(h.n), rng.randint(0, min(decoys, h.n)))} for a in img]
    return Instance(SignedGraph(n, [(u, v, c) for (u, v), c in edges.items()]), lists)


def random_path_target(rng, n, p_chord=0.3):
    """Blue path with a random set of odd-distance chords bicoloured."""
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 3, n, 2):
            if rng.random() < p_chord:
                edges.append((i, j, BICOLOURED))
    return SignedGraph(n, edges)


def random_cycle_target(rng, n, p_chord=0.3):
    """Blue cycle on an even n with a random set of chords at odd cyclic
    distance of at least 3 bicoloured."""
    edges = [(i, (i + 1) % n, BLUE) for i in range(n)]
    for i in range(n):
        for j in range(i + 3, n, 2):
            if min(j - i, n - (j - i)) >= 3 and rng.random() < p_chord:
                edges.append((i, j, BICOLOURED))
    return SignedGraph(n, edges)


def random_segmented_path(rng, n):
    """A blue path on n vertices whose bicoloured edges are the mandated set
    of a Right, Left or LeftRight layout over random block starts, built
    from per-segment closures; a trivial path when no block fits."""
    starts = []
    i = rng.randrange(3)
    while i + 3 < n:
        starts.append(i)
        i += rng.choice((2, 2, 3, 4, 5))
    segments = find_segments(PathForm(tuple(range(n)), frozenset((i, i + 3) for i in starts)))
    layout = rng.choice((RIGHT_SEGMENTED, LEFT_SEGMENTED, LEFT_RIGHT_SEGMENTED))
    pivot = rng.choice(segments) if segments else None
    bic = set()
    for s in segments:
        if layout == LEFT_SEGMENTED or (layout == LEFT_RIGHT_SEGMENTED and s.start <= pivot.start):
            bic |= _ref_backward_closure(s)
        if layout == RIGHT_SEGMENTED or (layout == LEFT_RIGHT_SEGMENTED and s.start >= pivot.start):
            bic |= _ref_forward_closure(s, n)
    if layout == LEFT_RIGHT_SEGMENTED and pivot is not None:
        bic |= {
            (src, tgt)
            for src in range(pivot.start - 2, -1, -2)
            for tgt in range(pivot.end + 2, n, 2)
        }
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    return SignedGraph(n, edges + [(a, b, BICOLOURED) for a, b in sorted(bic)])


def random_switching(rng, n):
    return Switching(v for v in range(n) if rng.randrange(2))


def random_relabel(rng, g):
    """A relabeled copy of g and the permutation used."""
    phi = list(range(g.n))
    rng.shuffle(phi)
    return relabel(g, phi), tuple(phi)


def reduction_occurrences(csp, ell):
    """Occurrence vertices per variable, following the reduction layout:
    one gadget block of ell + 3 vertices per quadruple, in order."""
    span = ell + 3
    occ = {}
    for k, (qa, qb, qc, qd) in enumerate(csp.quads):
        base = k * span
        occ.setdefault(qa, []).append(base)
        occ.setdefault(qb, []).append(base + ell + 1)
        occ.setdefault(qc, []).append(base + ell)
        occ.setdefault(qd, []).append(base + ell + 2)
    return occ


def gadget_images_rigid(mapping, nquads, ell):
    """Each gadget's inner spine maps onto the long path or onto the short
    path, never a mix."""
    span = ell + 3
    for k in range(nquads):
        base = k * span
        inner = [mapping[base + i] for i in range(1, ell)]
        on_long = all(val == i for i, val in enumerate(inner, start=1))
        on_short = all(val in (ell + 1, ell + 2) for val in inner)
        if not (on_long or on_short):
            return False
    return True


def occurrences_switched_coherently(occ, flipped):
    """No variable with one occurrence switched and another not."""
    return all(len({v in flipped for v in vs}) == 1 for vs in occ.values())


@st.composite
def signed_graph_st(draw, max_n=7):
    """Hypothesis strategy: an arbitrary small signed graph."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            colour = draw(st.sampled_from((None, BLUE, RED, BICOLOURED)))
            if colour is not None:
                edges.append((u, v, colour))
    return SignedGraph(n, edges)


@st.composite
def spine_graph_st(draw, max_n=12):
    """Hypothesis strategy: a unicoloured path or cycle spine on 0..max_n
    vertices, either length parity, with bicoloured chords of either parity,
    sometimes one extra unicoloured edge or one spine edge missing, then
    switched and relabeled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    cycle = n >= 3 and draw(st.booleans())
    signs = (BLUE, RED)
    edges = {}
    for i in range(n - 1 + cycle):
        u, v = sorted((i, (i + 1) % n))
        edges[u, v] = draw(st.sampled_from(signs))
    pairs = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) not in edges]
    for pair in pairs:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            edges[pair] = BICOLOURED
    change = draw(st.sampled_from(("none", "none", "extra", "missing")))
    spine = [pair for pair, c in edges.items() if c is not BICOLOURED]
    if change == "extra" and pairs:
        edges[draw(st.sampled_from(pairs))] = draw(st.sampled_from(signs))
    elif change == "missing" and spine:
        del edges[draw(st.sampled_from(spine))]
    g = SignedGraph(n, [(u, v, c) for (u, v), c in edges.items()])
    flips = draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=n))
    phi = draw(st.permutations(range(n)))
    return relabel(apply_switching(g, Switching(flips)), phi)


def took(f):
    """Seconds one call of f takes, with the cyclic collector paused for
    the call only, as timeit pauses it: otherwise its passes over every
    object the suite keeps alive land inside the timed call."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        assert f() is not None
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
