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


def _read(text: str, target_n: Optional[int]):
    """One pass over the lines of a graph text, or with target_n an instance
    text: the graph, the lists (None for a graph), and the first line that is
    neither an edge line nor a good list line, or None. Lines are checked as
    they come, the header first and then each edge line; the line returned
    is reported after the graph is built, so a bad edge line anywhere, and
    then a vertex count too large to hold (MemoryError), come before it. No
    list line is read after that line."""
    n = None
    keyed: Dict[int, EdgeColour] = {}
    lists: Optional[List[Optional[frozenset]]] = None
    checked: Dict[Tuple[str, ...], frozenset] = {}
    bad = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        if n is None:
            head = (lineno, raw, tokens)
            if tokens[0] != "sg":
                raise _error(head, 0, "expected 'sg <n>' header")
            if len(tokens) != 2:
                raise _error(head, 0, "header takes exactly one count")
            n = _int_token(head, 1, "a vertex count")
            if n < 0:
                raise _error(head, 1, "vertex count must be nonnegative")
            if target_n is not None:
                try:
                    lists = [None] * n
                except (MemoryError, OverflowError):
                    pass  # the graph's count probe fails before any list line counts
        elif tokens[0] == "e":
            try:
                _, a, b, sym = tokens
                u = int(a)
                v = int(b)
                c = COLOUR_SYMBOLS[sym]
            except (ValueError, KeyError):
                _reject_edge((lineno, raw, tokens), n)
            if u > v:
                u, v = v, u
            key = u * n + v
            if not 0 <= u < v < n or key in keyed:
                _reject_edge((lineno, raw, tokens), n)
            keyed[key] = c
        elif bad is None:
            if lists is not None:
                try:
                    kind, head, *tail = tokens
                    v = int(head)
                    rest = tuple(tail)
                    values = checked.get(rest)
                    if values is None:
                        values = frozenset(map(int, tail))
                        if values and (min(values) < 0 or max(values) >= target_n):
                            values = None
                        else:
                            checked[rest] = values
                except ValueError:
                    values = None
                if values is not None and kind == "l" and 0 <= v < n and lists[v] is None:
                    lists[v] = values
                    continue
            bad = (lineno, raw, tokens)
    if n is None:
        raise ParseError(1, 1, "empty input, expected 'sg <n>' header")
    return SignedGraph._checked(n, keyed), lists, bad


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
    g, _, bad = _read(text, None)
    if bad is not None:
        raise _error(bad, 0, f"unexpected directive {bad[2][0]!r}")
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

    g, lists, bad = _read(text, target_n)
    if lists is None:
        raise MemoryError(f"vertex count {g.n} too large")
    if bad is not None:
        _reject_list(bad, g.n, target_n, lists)
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
