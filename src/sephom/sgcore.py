"""Signed graphs: construction, switching, balance checks, equivalence."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class EdgeColour(Enum):
    BLUE = "+"
    RED = "-"
    BICOLOURED = "*"

    @property
    def unicoloured(self) -> bool:
        return self is not EdgeColour.BICOLOURED


BLUE = EdgeColour.BLUE
RED = EdgeColour.RED
BICOLOURED = EdgeColour.BICOLOURED


@dataclass(frozen=True)
class Switching:
    """A set of vertices at which all incident unicoloured edges flip sign."""

    flipped: frozenset

    def __init__(self, flipped: Iterable[int] = ()):
        object.__setattr__(self, "flipped", frozenset(flipped))


@dataclass(frozen=True)
class Bipartition:
    black: frozenset
    white: frozenset

    def side(self, v: int) -> int:
        """0 for white, 1 for black."""
        return 1 if v in self.black else 0


class _BuiltOnRead:
    """An attribute of SignedGraph that build(g) makes from the edges on its
    first read; it is stored on the graph, where it shadows this descriptor.
    Not functools.cached_property: it writes through the instance
    ``__dict__``, after which CPython reads every attribute of the graph
    more slowly."""

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, g, owner=None):
        if g is None:
            return self
        value = self.build(g)
        setattr(g, self.name, value)
        return value


class SignedGraph:
    """An irreflexive signed graph on vertices 0..n-1.

    Each unordered vertex pair carries at most one edge record; a bicoloured
    edge stands for a coincident red-blue pair and is a single record. A
    graph holds ``n`` and ``edges``, its records (u, v, colour) with u < v
    in sorted order; the builders key an edge u-v as the int u * n + v.

    ``adj_mask`` and ``bic_mask`` (per-vertex neighbour bitmasks, over all
    edges and over bicoloured ones; the first read of either builds both in
    one pass), ``_colour`` (the (u, v) to colour map behind ``colour`` and
    ``adjacent``) and ``_hash`` are built on first read and kept: the
    targets' verifiers and witness searches read them, while an instance
    graph, which the solvers read only through ``edges``, never pays their
    quadratic bit work or a second copy of its edges.
    """

    adj_mask = _BuiltOnRead(lambda g: _store_masks(g)[0])
    bic_mask = _BuiltOnRead(lambda g: _store_masks(g)[1])
    _colour = _BuiltOnRead(lambda g: {(u, v): c for u, v, c in g.edges})
    _hash = _BuiltOnRead(lambda g: hash((g.n, g.edges)))

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, EdgeColour]]):
        # bool is a subclass of int, so True would pass an isinstance check.
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        keyed: Dict[int, EdgeColour] = {}
        for u, v, c in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"vertex ids must be ints, got edge {u!r}-{v!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"unknown vertex id in edge {u}-{v}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not isinstance(c, EdgeColour):
                raise ValueError(f"bad edge colour {c!r}")
            key = u * n + v if u < v else v * n + u
            if key in keyed:
                raise ValueError("parallel edge records on %d-%d" % divmod(key, n))
            keyed[key] = c
        self._fill(n, _in_key_order(n, keyed))

    @classmethod
    def _checked(cls, n: int, keyed: Dict[int, EdgeColour]) -> "SignedGraph":
        """The graph of a colour map keyed by u * n + v with 0 <= u < v < n,
        already checked as __init__ checks its edges."""
        return cls._trusted(n, _in_key_order(n, keyed))

    @classmethod
    def _trusted(cls, n: int, edges: Tuple[Tuple[int, int, EdgeColour], ...]) -> "SignedGraph":
        """The graph of edge records already checked as __init__ checks its
        edges and in key order; the records are kept, not copied."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges: Tuple[Tuple[int, int, EdgeColour], ...]) -> None:
        """The one place that sets n and edges, for every constructor."""
        _probe_count(n)
        self.n = n
        self.edges = edges

    def colour(self, u: int, v: int) -> Optional[EdgeColour]:
        return self._colour.get((u, v) if u < v else (v, u))

    def adjacent(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._colour

    def neighbours(self, v: int):
        return _bits(self.adj_mask[v])

    def unicoloured_edges(self):
        return [(u, v, c) for u, v, c in self.edges if c is not BICOLOURED]

    def bicoloured_edges(self):
        return [(u, v) for u, v, c in self.edges if c is BICOLOURED]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, edges={list(self.edges)!r})"


def _in_key_order(n: int, keyed: Dict[int, EdgeColour]) -> Tuple[Tuple[int, int, EdgeColour], ...]:
    """The edge records of a colour map keyed by u * n + v, in key order."""
    return tuple([(k // n, k % n, keyed[k]) for k in sorted(keyed)])


def _probe_count(n: int) -> None:
    """Make, and drop, one list of n slots up front: a vertex count too large
    to hold fails here at once with MemoryError, not later in a per-vertex
    list that some walk grows one vertex at a time."""
    try:
        [None] * n
    except OverflowError:
        raise MemoryError(f"vertex count {n} too large") from None


def _masks(n: int, edges: Iterable[Tuple[int, int, EdgeColour]]) -> Tuple[List[int], List[int]]:
    """Per-vertex neighbour bitmasks over the given edges and over their
    bicoloured ones, from one pass."""
    adj = [0] * n
    bic = [0] * n
    for u, v, c in edges:
        bu = 1 << u
        bv = 1 << v
        adj[u] |= bv
        adj[v] |= bu
        if c is BICOLOURED:
            bic[u] |= bv
            bic[v] |= bu
    return adj, bic


def _store_masks(g: SignedGraph) -> Tuple[List[int], List[int]]:
    """Build g's adj_mask and bic_mask together and store both on g."""
    g.adj_mask, g.bic_mask = rows = _masks(g.n, g.edges)
    return rows


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def apply_switching(g: SignedGraph, s: Switching) -> SignedGraph:
    """Toggle blue/red on unicoloured edges with exactly one endpoint in s."""
    for v in s.flipped:
        if not (0 <= v < g.n):
            raise ValueError(f"unknown vertex id {v} in switching")
    flip = s.flipped
    edges = []
    for u, v, c in g.edges:
        if c.unicoloured and ((u in flip) != (v in flip)):
            c = RED if c is BLUE else BLUE
        edges.append((u, v, c))
    return SignedGraph(g.n, edges)


def relabel(g: SignedGraph, phi: Sequence[int]) -> SignedGraph:
    """Rename vertex v to phi[v]; phi must be a permutation of 0..n-1."""
    if sorted(phi) != list(range(g.n)):
        raise ValueError("relabeling is not a permutation")
    return SignedGraph(g.n, [(phi[u], phi[v], c) for u, v, c in g.edges])


def _inverse(phi: Sequence[int]) -> List[int]:
    """The inverse of a permutation of 0..len(phi)-1."""
    inv = [0] * len(phi)
    for v, image in enumerate(phi):
        inv[image] = v
    return inv


def walk_sign(g: SignedGraph, walk: Sequence[int], bic_signs: Sequence[str] = ()) -> str:
    """Sign of a walk: product of step signs, bicoloured steps as chosen.

    bic_signs supplies one "+"/"-" per bicoloured step, in walk order.
    """
    bit = 0
    used = 0
    for u, v in zip(walk, walk[1:]):
        c = g.colour(u, v)
        if c is None:
            raise ValueError(f"walk step {u}-{v} is not an edge")
        if c is BICOLOURED:
            if used >= len(bic_signs):
                raise ValueError("missing sign choice for bicoloured step")
            choice = bic_signs[used]
            if choice not in ("+", "-"):
                raise ValueError(f"bad sign choice {choice!r}")
            used += 1
            bit ^= choice == "-"
        else:
            bit ^= c is RED
    if used != len(bic_signs):
        raise ValueError("too many sign choices for bicoloured steps")
    return "-" if bit else "+"


def _parity_lists(
    n: int, edges: Iterable[Tuple[int, int, int]]
) -> List[List[Tuple[int, int]]]:
    """Per-vertex (neighbour, bit) lists from (u, v, bit) triples, in the
    order the triples come."""
    nbrs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, p in edges:
        nbrs[u].append((v, p))
        nbrs[v].append((u, p))
    return nbrs


def _parity_walk(
    nbrs, roots: Iterable[int]
) -> Optional[Tuple[Dict[int, int], List[List[int]]]]:
    """Walk out from each root not yet reached, in order: the root gets bit
    0, and across an entry (w, p) of nbrs[v] w gets bit[v] ^ p. Returns the
    bits of the reached vertices and their components in root order, each
    in visiting order; absent when some entry disagrees."""
    bit: Dict[int, int] = {}
    comps: List[List[int]] = []
    for root in roots:
        if root in bit:
            continue
        bit[root] = 0
        comp = [root]
        for v in comp:
            b = bit[v]
            for w, p in nbrs[v]:
                if w not in bit:
                    bit[w] = b ^ p
                    comp.append(w)
                elif bit[w] != b ^ p:
                    return None
        comps.append(comp)
    return bit, comps


def _switching(
    g: SignedGraph, edges: Iterable[Tuple[int, int, int]], roots: Iterable[int]
) -> Optional[Switching]:
    """The vertices a parity walk over the (u, v, bit) triples sends to bit
    1, as a switching; absent on a conflict. roots must reach every vertex."""
    found = _parity_walk(_parity_lists(g.n, edges), roots)
    if found is None:
        return None
    return Switching(v for v, b in found[0].items() if b)


def is_balanced(g: SignedGraph) -> Optional[Switching]:
    """A switching making every edge blue, if one exists."""
    if any(c is BICOLOURED for _, _, c in g.edges):
        return None
    return is_semi_balanced(g)


def is_anti_balanced(g: SignedGraph) -> Optional[Switching]:
    """A switching making every edge red, if one exists."""
    if any(c is BICOLOURED for _, _, c in g.edges):
        return None
    return _switching(g, ((u, v, c is BLUE) for u, v, c in g.edges), range(g.n))


def is_semi_balanced(g: SignedGraph) -> Optional[Switching]:
    """A switching making every unicoloured edge blue, if one exists."""
    return _switching(
        g, ((u, v, c is RED) for u, v, c in g.edges if c is not BICOLOURED), range(g.n)
    )


def bipartition(g: SignedGraph) -> Optional[Bipartition]:
    """A 2-colouring of the underlying graph; the least vertex of each
    component goes to the white side."""
    s = _switching(g, ((u, v, 1) for u, v, _ in g.edges), range(g.n))
    if s is None:
        return None
    return Bipartition(black=s.flipped, white=frozenset(range(g.n)) - s.flipped)


def switching_equivalent(
    g: SignedGraph, h: SignedGraph
) -> Optional[Tuple[Tuple[int, ...], Switching]]:
    """A vertex bijection phi and switching s with relabel(apply_switching(g, s), phi) == h.

    Intended for small graphs; bicoloured edges must map onto bicoloured
    edges and the unicoloured structure must match up to switching.
    """
    n = g.n
    if n != h.n or len(g.edges) != len(h.edges):
        return None
    if len(g.bicoloured_edges()) != len(h.bicoloured_edges()):
        return None

    def signature(gr: SignedGraph, v: int) -> Tuple[int, int]:
        bic = gr.bic_mask[v].bit_count()
        return (gr.adj_mask[v].bit_count() - bic, bic)

    gsig = [signature(g, v) for v in range(n)]
    hsig = [signature(h, v) for v in range(n)]
    if sorted(gsig) != sorted(hsig):
        return None

    # Depth-first over v = 0, 1, ..., trying images w in increasing order:
    # w fits v when its edges and bicoloured edges into the images placed so
    # far are the images of v's edges into 0..v-1. placed is the mask of
    # those images, and start[v] the next w to try at v.
    phi = [-1] * n
    start = [0] * (n + 1)
    placed = 0
    v = 0
    while True:
        w = n
        if v == n:
            # Roots in image order: each component's root and bits are
            # those of the same walk over relabel(g, phi).
            s = _switching(
                g,
                ((u, x, c is not h.colour(phi[u], phi[x])) for u, x, c in g.edges if c is not BICOLOURED),
                _inverse(phi),
            )
            if s is not None:
                return tuple(phi), s
        else:
            below = (1 << v) - 1
            adj = sum(1 << phi[u] for u in _bits(g.adj_mask[v] & below))
            bic = sum(1 << phi[u] for u in _bits(g.bic_mask[v] & below))
            w = next(
                (
                    x
                    for x in range(start[v], n)
                    if not placed >> x & 1
                    and gsig[v] == hsig[x]
                    and h.adj_mask[x] & placed == adj
                    and h.bic_mask[x] & placed == bic
                ),
                n,
            )
        if w < n:
            phi[v] = w
            placed |= 1 << w
            start[v] = w + 1
            v += 1
            start[v] = 0
        elif v == 0:
            return None
        else:
            v -= 1
            placed ^= 1 << phi[v]


__all__ = [
    "EdgeColour",
    "BLUE",
    "RED",
    "BICOLOURED",
    "SignedGraph",
    "Switching",
    "Bipartition",
    "apply_switching",
    "relabel",
    "walk_sign",
    "is_balanced",
    "is_anti_balanced",
    "is_semi_balanced",
    "bipartition",
    "switching_equivalent",
]
