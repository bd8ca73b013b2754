"""Text formats for graphs, instances and quadruple CSPs."""

from __future__ import annotations

from typing import List, Optional, Tuple

from .sgcore import EdgeColour, SignedGraph

COLOUR_SYMBOLS = {c.value: c for c in EdgeColour}


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[Tuple[int, List[Tuple[str, int]]]]:
    """Split into lines of (token, 1-based column); '#' starts a comment."""
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


def _int_token(lineno: int, tok: str, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected {what}, got {tok!r}") from None


def _parse_graph_lines(lines) -> Tuple[SignedGraph, list]:
    if not lines:
        raise ParseError(1, 1, "empty input, expected 'sg <n>' header")
    lineno, tokens = lines[0]
    if tokens[0][0] != "sg":
        raise ParseError(lineno, tokens[0][1], "expected 'sg <n>' header")
    if len(tokens) != 2:
        raise ParseError(lineno, tokens[0][1], "header takes exactly one count")
    n = _int_token(lineno, tokens[1][0], tokens[1][1], "a vertex count")
    if n < 0:
        raise ParseError(lineno, tokens[1][1], "vertex count must be nonnegative")
    edges = []
    seen = set()
    rest = []
    for lineno, tokens in lines[1:]:
        kind = tokens[0][0]
        if kind != "e":
            rest.append((lineno, tokens))
            continue
        if len(tokens) != 4:
            raise ParseError(lineno, tokens[0][1], "edge lines are 'e <u> <v> <c>'")
        u = _int_token(lineno, tokens[1][0], tokens[1][1], "a vertex id")
        v = _int_token(lineno, tokens[2][0], tokens[2][1], "a vertex id")
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


def parse_graph(text: str) -> SignedGraph:
    g, rest = _parse_graph_lines(_tokenize(text))
    if rest:
        lineno, tokens = rest[0]
        raise ParseError(lineno, tokens[0][1], f"unexpected directive {tokens[0][0]!r}")
    return g


def serialize_graph(g: SignedGraph) -> str:
    lines = [f"sg {g.n}"]
    lines.extend(f"e {u} {v} {c.value}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


def parse_instance(text: str, target_n: int):
    """Parse a graph plus 'l <v> <t1> <t2> ...' list lines.

    Vertices without a list line get the full target vertex set.
    """
    from .solver import Instance

    g, rest = _parse_graph_lines(_tokenize(text))
    lists: List[Optional[frozenset]] = [None] * g.n
    for lineno, tokens in rest:
        if tokens[0][0] != "l":
            raise ParseError(lineno, tokens[0][1], f"unexpected directive {tokens[0][0]!r}")
        if len(tokens) < 2:
            raise ParseError(lineno, tokens[0][1], "list lines are 'l <v> <t1> <t2> ...'")
        v = _int_token(lineno, tokens[1][0], tokens[1][1], "a vertex id")
        if not 0 <= v < g.n:
            raise ParseError(lineno, tokens[1][1], f"vertex id {v} out of range 0..{g.n - 1}")
        if lists[v] is not None:
            raise ParseError(lineno, tokens[1][1], f"duplicate list for vertex {v}")
        values = []
        for tok, col in tokens[2:]:
            t = _int_token(lineno, tok, col, "a target vertex id")
            if not 0 <= t < target_n:
                raise ParseError(lineno, col, f"target id {t} out of range 0..{target_n - 1}")
            values.append(t)
        lists[v] = frozenset(values)
    full = frozenset(range(target_n))
    return Instance(g, tuple(full if l is None else l for l in lists))


def serialize_instance(inst) -> str:
    lines = [serialize_graph(inst.g).rstrip("\n")]
    for v, values in enumerate(inst.lists):
        lines.append("l " + " ".join(str(t) for t in [v] + sorted(values)))
    return "\n".join(lines) + "\n"


def parse_quadcsp(text: str):
    from .hardness import QuadCsp

    names: List[str] = []
    quads = []
    for lineno, tokens in _tokenize(text):
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


def serialize_quadcsp(csp) -> str:
    lines = [f"v {name}" for name in csp.vars]
    lines.extend("q " + " ".join(q) for q in csp.quads)
    return "\n".join(lines) + "\n"


__all__ = [
    "ParseError",
    "parse_graph",
    "serialize_graph",
    "parse_instance",
    "serialize_instance",
    "parse_quadcsp",
    "serialize_quadcsp",
]
