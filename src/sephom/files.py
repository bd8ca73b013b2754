"""Text formats for graphs, instances and quadruple CSPs."""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional, Tuple

from .sgcore import EdgeColour, SignedGraph

COLOUR_SYMBOLS = {c.value: c for c in EdgeColour}


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[Tuple[int, str, List[str]]]:
    """The lines that hold tokens, as (1-based line number, the line up to
    any '#', its tokens)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if tokens:
            out.append((lineno, raw, tokens))
    return out


def _error(line: Tuple[int, str, List[str]], k: int, message: str) -> ParseError:
    """A ParseError at token k of a tokenized line. Columns are only needed
    here, so they are found here: each token is searched for after the end
    of the one before it."""
    lineno, raw, tokens = line
    col = 0
    for tok in tokens[:k]:
        col = raw.index(tok, col) + len(tok)
    return ParseError(lineno, raw.index(tokens[k], col) + 1, message)


def _int_token(line: Tuple[int, str, List[str]], k: int, what: str) -> int:
    tok = line[2][k]
    try:
        return int(tok)
    except ValueError:
        raise _error(line, k, f"expected {what}, got {tok!r}") from None


def _parse_graph_lines(lines) -> Tuple[SignedGraph, list]:
    if not lines:
        raise ParseError(1, 1, "empty input, expected 'sg <n>' header")
    head = lines[0]
    if head[2][0] != "sg":
        raise _error(head, 0, "expected 'sg <n>' header")
    if len(head[2]) != 2:
        raise _error(head, 0, "header takes exactly one count")
    n = _int_token(head, 1, "a vertex count")
    if n < 0:
        raise _error(head, 1, "vertex count must be nonnegative")
    colour_of: Dict[Tuple[int, int], EdgeColour] = {}
    rest = []
    for line in lines[1:]:
        tokens = line[2]
        if tokens[0] != "e":
            rest.append(line)
            continue
        try:
            _, a, b, sym = tokens
            u = int(a)
            v = int(b)
            c = COLOUR_SYMBOLS[sym]
        except (ValueError, KeyError):
            _reject_edge(line, n)
        key = (u, v) if u < v else (v, u)
        if not 0 <= key[0] < key[1] < n or key in colour_of:
            _reject_edge(line, n)
        colour_of[key] = c
    return SignedGraph._checked(n, colour_of), rest


def _reject_edge(line: Tuple[int, str, List[str]], n: int) -> NoReturn:
    """Raise the error of an edge line that failed a check, running every
    check in order so the first failure is the one reported; an edge that
    passes all the others repeats an earlier one."""
    tokens = line[2]
    if len(tokens) != 4:
        raise _error(line, 0, "edge lines are 'e <u> <v> <c>'")
    u = _int_token(line, 1, "a vertex id")
    v = _int_token(line, 2, "a vertex id")
    sym = tokens[3]
    if sym not in COLOUR_SYMBOLS:
        raise _error(line, 3, f"edge colour must be one of + - *, got {sym!r}")
    if not 0 <= u < n:
        raise _error(line, 1, f"vertex id {u} out of range 0..{n - 1}")
    if not 0 <= v < n:
        raise _error(line, 2, f"vertex id {v} out of range 0..{n - 1}")
    if u == v:
        raise _error(line, 1, f"loop at vertex {u} not allowed")
    raise _error(line, 1, f"duplicate edge {u}-{v}")


def parse_graph(text: str) -> SignedGraph:
    g, rest = _parse_graph_lines(_tokenize(text))
    if rest:
        raise _error(rest[0], 0, f"unexpected directive {rest[0][2][0]!r}")
    return g


def serialize_graph(g: SignedGraph) -> str:
    lines = [f"sg {g.n}"]
    lines.extend(f"e {u} {v} {c.value}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


def parse_instance(text: str, target_n: int):
    """Parse a graph plus 'l <v> <t1> <t2> ...' list lines.

    Vertices without a list line get the full target vertex set. List lines
    with the same tokens after the vertex id share one frozenset, converted
    and checked once.
    """
    from .solver import Instance

    g, rest = _parse_graph_lines(_tokenize(text))
    lists: List[Optional[frozenset]] = [None] * g.n
    checked: Dict[Tuple[str, ...], frozenset] = {}
    for line in rest:
        try:
            kind, head, *tail = line[2]
            v = int(head)
        except ValueError:
            _reject_list(line, g.n, target_n, lists)
        key = tuple(tail)
        values = checked.get(key)
        if values is None:
            try:
                values = frozenset(map(int, tail))
            except ValueError:
                _reject_list(line, g.n, target_n, lists)
            if values and (min(values) < 0 or max(values) >= target_n):
                _reject_list(line, g.n, target_n, lists)
            checked[key] = values
        if kind != "l" or not 0 <= v < g.n or lists[v] is not None:
            _reject_list(line, g.n, target_n, lists)
        lists[v] = values
    full = frozenset(range(target_n))
    return Instance._checked(g, tuple(full if l is None else l for l in lists))


def _reject_list(line: Tuple[int, str, List[str]], n: int, target_n: int, lists) -> NoReturn:
    """Raise the error of a list line that failed a check, running every
    check in order so the first failure is the one reported."""
    tokens = line[2]
    if tokens[0] != "l":
        raise _error(line, 0, f"unexpected directive {tokens[0]!r}")
    if len(tokens) < 2:
        raise _error(line, 0, "list lines are 'l <v> <t1> <t2> ...'")
    v = _int_token(line, 1, "a vertex id")
    if not 0 <= v < n:
        raise _error(line, 1, f"vertex id {v} out of range 0..{n - 1}")
    if lists[v] is not None:
        raise _error(line, 1, f"duplicate list for vertex {v}")
    for k in range(2, len(tokens)):
        t = _int_token(line, k, "a target vertex id")
        if not 0 <= t < target_n:
            raise _error(line, k, f"target id {t} out of range 0..{target_n - 1}")


def serialize_instance(inst) -> str:
    lines = [serialize_graph(inst.g).rstrip("\n")]
    for v, values in enumerate(inst.lists):
        lines.append("l " + " ".join(str(t) for t in [v] + sorted(values)))
    return "\n".join(lines) + "\n"


def parse_quadcsp(text: str):
    from .hardness import QuadCsp

    names: Dict[str, None] = {}  # a set that keeps declaration order
    quads = []
    for line in _tokenize(text):
        tokens = line[2]
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 2:
                raise _error(line, 0, "variable lines are 'v <name>'")
            name = tokens[1]
            if name in names:
                raise _error(line, 1, f"duplicate variable {name!r}")
            names[name] = None
        elif kind == "q":
            if len(tokens) != 5:
                raise _error(line, 0, "quadruple lines are 'q <a> <b> <c> <d>'")
            for k in range(1, 5):
                if tokens[k] not in names:
                    raise _error(line, k, f"undeclared variable {tokens[k]!r}")
            quads.append(tuple(tokens[1:]))
        else:
            raise _error(line, 0, f"unexpected directive {kind!r}")
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
