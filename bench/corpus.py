"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain inputs: edge
lists, graphs, instances or quadruple CSPs. The same seed gives the same
inputs. Only sephom's data types are used here, none of its functions.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from sephom.sgcore import BICOLOURED, BLUE, RED, SignedGraph
from sephom.solver import Instance
from sephom.hardness import QuadCsp

Edge = Tuple[int, int, object]


def disguise(n: int, edges: Sequence[Edge], rng: random.Random) -> List[Edge]:
    """The edges after a random switching and then a random relabelling."""
    phi = list(range(n))
    rng.shuffle(phi)
    flip = [rng.random() < 0.5 for _ in range(n)]
    out = []
    for u, v, c in edges:
        if c is not BICOLOURED and flip[u] != flip[v]:
            c = RED if c is BLUE else BLUE
        a, b = phi[u], phi[v]
        out.append((a, b, c) if a < b else (b, a, c))
    out.sort()
    return out


def graph_text(n: int, edges: Sequence[Edge]) -> str:
    """The ``sg`` text of a graph whose edges are sorted with u < v."""
    return "sg %d\n" % n + "".join("e %d %d %s\n" % (u, v, c.value) for u, v, c in edges)


def instance_text(g: SignedGraph, lists: Sequence[Sequence[int]]) -> str:
    lines = [graph_text(g.n, g.edges)]
    lines.extend("l %d %s\n" % (v, " ".join(map(str, sorted(l)))) for v, l in enumerate(lists))
    return "".join(lines)


def random_path(n: int, rng: random.Random, density: float) -> List[Edge]:
    """Unicoloured spanning path 0..n-1 with random signs, plus bicoloured
    chords between positions an odd distance of at least 3 apart."""
    edges = [(i, i + 1, rng.choice((BLUE, RED))) for i in range(n - 1)]
    edges += [
        (i, j, BICOLOURED)
        for i in range(n)
        for j in range(i + 3, n, 2)
        if rng.random() < density
    ]
    return edges


def random_cycle(n: int, rng: random.Random, density: float) -> List[Edge]:
    """Unicoloured spanning cycle on an even n with random signs, plus
    bicoloured chords at odd cyclic distance of at least 3."""
    edges = [(i, i + 1, rng.choice((BLUE, RED))) for i in range(n - 1)]
    edges.append((0, n - 1, rng.choice((BLUE, RED))))
    for i in range(n):
        for j in range(i + 3, n, 2):
            if min(j - i, n - (j - i)) >= 3 and rng.random() < density:
                edges.append((i, j, BICOLOURED))
    return edges


def segmented_path(n: int, rng: random.Random) -> List[Edge]:
    """A right-segmented path (or, mirrored, a left-segmented one).

    Block starts are chosen with no two adjacent; each start f gets every
    forward bicoloured edge (f, t) with t = f + 3, f + 5, ... as the right
    closure demands, so the target is segmented by construction.
    """
    starts: List[int] = []
    i = rng.randrange(0, 3)
    while i + 3 < n:
        starts.append(i)
        i += rng.choice((2, 2, 3, 4, 5))
    edges = [(i, i + 1, rng.choice((BLUE, RED))) for i in range(n - 1)]
    edges += [(f, t, BICOLOURED) for f in starts for t in range(f + 3, n, 2)]
    if rng.random() < 0.5:
        edges = [(n - 1 - v, n - 1 - u, c) for u, v, c in edges]
    return edges


def planted_instance(
    h: SignedGraph, n: int, extra: int, decoys: int, rng: random.Random
) -> Instance:
    """A connected instance with a known solution into h.

    A random tree is grown by mapping each new vertex to a neighbour of its
    parent's image; ``extra`` more edges join vertices whose images are
    adjacent. Edge colours follow the image under a random switching, so
    the drawn map and switching solve the instance. Each list holds the
    image plus up to ``decoys`` other target vertices.
    """
    nbrs = [list(h.neighbours(a)) for a in range(h.n)]
    flip = [rng.random() < 0.5 for _ in range(n)]
    img = [rng.choice([a for a in range(h.n) if nbrs[a]])]

    def colour(u: int, v: int) -> object:
        c = h.colour(img[u], img[v])
        if c is BICOLOURED:
            return rng.choice((BLUE, RED, BICOLOURED))
        if flip[u] != flip[v]:
            return RED if c is BLUE else BLUE
        return c

    edges = {}
    for v in range(1, n):
        u = rng.randrange(max(0, v - 8), v) if rng.random() < 0.7 else rng.randrange(v)
        img.append(rng.choice(nbrs[img[u]]))
        edges[(u, v)] = colour(u, v)
    by_image: dict = {}
    for v, a in enumerate(img):
        by_image.setdefault(a, []).append(v)
    tries = 0
    while extra and tries < 50 * (extra + 1):
        tries += 1
        u = rng.randrange(n)
        b = rng.choice(nbrs[img[u]])
        if b not in by_image:
            continue
        v = rng.choice(by_image[b])
        key = (u, v) if u < v else (v, u)
        if u != v and key not in edges:
            edges[key] = colour(*key)
            extra -= 1
    g = SignedGraph(n, [(u, v, c) for (u, v), c in edges.items()])
    lists = [
        frozenset([img[v]] + rng.sample(range(h.n), rng.randint(0, decoys)))
        for v in range(n)
    ]
    return Instance(g, lists)


def random_lists_instance(
    h: SignedGraph, n: int, extra: int, rng: random.Random
) -> Instance:
    """The graph of a planted instance with its lists replaced by random
    subsets of one to three target vertices; the answer is not known."""
    inst = planted_instance(h, n, extra, 0, rng)
    lists = [rng.sample(range(h.n), rng.randint(1, 3)) for _ in range(n)]
    return Instance(inst.g, lists)


def random_quadcsp(rng: random.Random, n_vars: int, n_quads: int) -> QuadCsp:
    names = ["x%d" % i for i in range(n_vars)]
    quads = [tuple(rng.choice(names) for _ in range(4)) for _ in range(n_quads)]
    used = [x for x in names if any(x in q for q in quads)]
    return QuadCsp(used, quads)
