"""Canonical cycle-separable targets.

All four builders lay the unicoloured spanning cycle out the same way:
vertices 0..l on the long path (0 and l are the endpoints shared with the
short path), then l+1 and l+2 on the short path, giving the cycle
0, 1, ..., l, l+2, l+1, 0. H1 is the case l = 3 and H0 the bare cycle
0, 1, 2, 3, 0.
"""

from __future__ import annotations

from typing import Optional

from .separable import CycleForm, _parities
from .sgcore import BICOLOURED, BLUE, RED, SignedGraph, _probe_count

H0 = "H0"
H1 = "H1"
HL = "Hl"


def template_pairs(ell: int):
    """Bicoloured pairs (i, j) on the long path: i even, j odd, j > i + 1."""
    return [
        (i, j)
        for i in range(0, ell + 1, 2)
        for j in range(i + 3, ell + 1, 2)
    ]


def template_pair_count(ell: int) -> int:
    """len(template_pairs(ell)) without listing them: the pairs with
    i = 0, 2, 4, ... number m, m - 1, m - 2, ..., where m = (ell - 1) // 2."""
    m = (ell - 1) // 2
    return m * (m + 1) // 2


def _check_odd(ell: Optional[int], least: int) -> None:
    """The one rule for a template parameter: an odd int >= least. Any other
    type, bool and float included, is rejected before it reaches range()."""
    if type(ell) is not int or ell < least or ell % 2 == 0:
        raise ValueError("template parameter must be an odd count >= %d" % least)


def template_cycle_form(kind: str, ell: Optional[int] = None) -> CycleForm:
    """cycle_form of build_h0(), build_h1() or build_hl(ell), read off the
    layout above without building the graph or listing its chords."""
    if kind == H0:
        return CycleForm((0, 1, 2, 3), "+", (0, 0, 0, 0))
    if kind == H1:
        ell, sign = 3, "-"
    elif kind == HL:
        _check_odd(ell, 3)
        sign = "+"
    else:
        raise ValueError("unknown target kind %r" % kind)
    order = tuple(range(ell + 1)) + (ell + 2, ell + 1)
    # Position i <= ell is vertex i: an even one has chords to the odd
    # positions from i + 3 to ell, an odd one to the even ones up to i - 3.
    even, odd = _parities(ell + 1)
    rows = [odd >> i + 3 << i + 3 if i % 2 == 0 else even & ((1 << i) - 1) >> 2 for i in range(ell + 1)]
    return CycleForm(order, sign, tuple(rows + [0, 0]))


def _cycle_edges(ell: int, long_colour, short_colours):
    _probe_count(ell + 3)
    edges = [(i, i + 1, long_colour) for i in range(ell)]
    edges.append((0, ell + 1, short_colours[0]))
    edges.append((ell + 1, ell + 2, short_colours[1]))
    edges.append((ell, ell + 2, short_colours[2]))
    return edges


def build_h0() -> SignedGraph:
    """The all-blue four-cycle."""
    return SignedGraph(4, [(0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)])


def build_h1() -> SignedGraph:
    """Six vertices, unbalanced spanning cycle, one antipodal bicoloured edge.

    Vertices: 0 and 3 are the bicoloured edge's endpoints; the long path
    0-1-2-3 is blue; the short path 0-4-5-3 is blue-red-blue.
    """
    edges = _cycle_edges(3, BLUE, (BLUE, RED, BLUE))
    edges.append((0, 3, BICOLOURED))
    return SignedGraph(6, edges)


def build_hl(ell: int) -> SignedGraph:
    """The balanced template target: all edges blue, bicoloured template pairs."""
    _check_odd(ell, 3)
    edges = _cycle_edges(ell, BLUE, (BLUE, BLUE, BLUE))
    edges.extend((i, j, BICOLOURED) for i, j in template_pairs(ell))
    return SignedGraph(ell + 3, edges)


def build_reduction_target(ell: int) -> SignedGraph:
    """The unbalanced template target the gadget reduction compiles against:
    long path blue, short path red, bicoloured template pairs."""
    _check_odd(ell, 5)
    edges = _cycle_edges(ell, BLUE, (RED, RED, RED))
    edges.extend((i, j, BICOLOURED) for i, j in template_pairs(ell))
    return SignedGraph(ell + 3, edges)


__all__ = [
    "H0",
    "H1",
    "HL",
    "template_pairs",
    "template_pair_count",
    "template_cycle_form",
    "build_h0",
    "build_h1",
    "build_hl",
    "build_reduction_target",
]
