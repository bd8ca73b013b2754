"""Text formats: graphs, instances, quadruple CSPs, and their error positions."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    planted_path_text,
    random_instance,
    ref_parse_graph,
    ref_parse_instance,
    ref_parse_quadcsp,
    ref_read,
    signed_graph_st,
    took,
)
from sephom import build_h1, build_hl
from sephom.files import (
    _PIECE,
    ParseError,
    _read,
    parse_graph,
    parse_instance,
    parse_quadcsp,
    serialize_graph,
    serialize_instance,
    serialize_quadcsp,
)
from sephom.hardness import QuadCsp


def test_graph_round_trip_example():
    g = build_h1()
    assert parse_graph(serialize_graph(g)) == g


@given(signed_graph_st())
@settings(max_examples=100)
def test_graph_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\n\nsg 2  # trailing\n  e 0 1 *\n# done\n"
    g = parse_graph(text)
    assert g.n == 2
    assert g.bicoloured_edges() == [(0, 1)]


def test_parse_graph_errors_carry_positions():
    with pytest.raises(ParseError, match="header") as e:
        parse_graph("e 0 1 +")
    assert (e.value.line, e.value.col) == (1, 1)
    with pytest.raises(ParseError, match="colour") as e:
        parse_graph("sg 2\ne 0 1 ?")
    assert (e.value.line, e.value.col) == (2, 7)
    with pytest.raises(ParseError, match="loop"):
        parse_graph("sg 2\ne 0 0 +")
    with pytest.raises(ParseError, match="duplicate edge") as e:
        parse_graph("sg 2\ne 0 1 +\ne 1 0 -")
    assert e.value.line == 3
    with pytest.raises(ParseError, match="out of range") as e:
        parse_graph("sg 2\ne 0 2 +")
    assert (e.value.line, e.value.col) == (2, 5)
    with pytest.raises(ParseError, match="unexpected directive"):
        parse_graph("sg 2\nz 1")
    with pytest.raises(ParseError, match="vertex count"):
        parse_graph("sg x")
    with pytest.raises(ParseError, match="'e <u> <v> <c>'"):
        parse_graph("sg 2\ne 0 1")
    with pytest.raises(ParseError, match="colour must be one of") as e:
        parse_graph("sg 3\n\te  0\t\t1   ?  # not a colour: 5\n")
    assert (e.value.line, e.value.col) == (2, 12)
    with pytest.raises(ParseError, match="got '1'") as e:
        parse_graph("sg 3  # three\ne\t1  1\t 1 # 1 1\n")
    assert (e.value.line, e.value.col) == (2, 9)
    with pytest.raises(ParseError, match="vertex count must be nonnegative") as e:
        parse_graph("sg -1")
    assert (e.value.line, e.value.col) == (1, 4)
    with pytest.raises(ParseError, match=r"vertex id 5 out of range 0\.\.1") as e:
        parse_graph("sg 2\ne 5 0 +")
    assert (e.value.line, e.value.col) == (2, 3)


def test_instance_lists_default_to_the_full_target_set():
    inst = parse_instance("sg 3\ne 0 1 +\ne 1 2 *\nl 0 0 2\nl 2 1\n", 4)
    assert sorted(inst.lists[0]) == [0, 2]
    assert sorted(inst.lists[1]) == [0, 1, 2, 3]
    assert sorted(inst.lists[2]) == [1]


def test_instance_round_trip():
    inst = parse_instance("sg 3\ne 0 1 +\ne 1 2 *\nl 0 0 2\nl 2 1\n", 4)
    again = parse_instance(serialize_instance(inst), 4)
    assert again.g == inst.g
    assert again.lists == inst.lists


def test_parse_instance_errors():
    with pytest.raises(ParseError, match="duplicate list") as e:
        parse_instance("sg 2\nl 0 1\nl 0 2", 4)
    assert e.value.line == 3
    with pytest.raises(ParseError, match="target id 9 out of range"):
        parse_instance("sg 2\nl 0 9", 4)
    with pytest.raises(ParseError, match="vertex id 5 out of range"):
        parse_instance("sg 2\nl 5 0", 4)
    with pytest.raises(ParseError, match="list lines are 'l <v> "):
        parse_instance("sg 1\nl", 2)


def test_equal_list_lines_share_one_checked_set():
    head = "sg 10\ne 0 1 +\nl 0 1 4\nl 7 1 4\n"
    inst = parse_instance(head + "l 9 4 1\n", 6)
    assert inst.lists[0] is inst.lists[7]
    assert inst.lists[9] == inst.lists[0] == {1, 4}
    # A line whose values repeat a checked line's still fails every other
    # check, and a bad value is reported where it first occurs, at the same
    # position as the reference finds it.
    for line in (
        "l 12 1 4",
        "l 7 1 4",
        "x 3 1 4",
        "l 3 1 x4",
        "l 3 1 4 6",
        "l 3 1 4 6\nl 5 1 4 6",
        "l 3 x4 1\nl 5 x4 1",
    ):
        text = head + line + "\n"
        found = _outcome(parse_instance, text, 6)
        assert found[0] == "error"
        assert found == _outcome(ref_parse_instance, text, 6)


def test_errors_keep_their_precedence_across_the_line_order():
    # Edge lines are checked first wherever they stand, then the vertex
    # count, then the first bad line of any other kind.
    for count in (2**62, 2**64):
        for parse, args in ((parse_graph, ()), (parse_instance, (3,)),
                            (ref_parse_graph, ()), (ref_parse_instance, (3,))):
            for rest in ("x 0\n", "l 0 9\n", "l 0 1\nl 0 2\ne 0 1 +\n", "e 1 0 -\nl x\n"):
                with pytest.raises(MemoryError):
                    parse("sg %d\n%s" % (count, rest), *args)
            with pytest.raises(ParseError, match="loop at vertex 1") as e:
                parse("sg %d\nl 0 9\nz\ne 1 1 +\n" % count, *args)
            assert (e.value.line, e.value.col) == (4, 3)
    for text in (
        "sg 3\nl 0 7\ne 0 1 +\ne 1 2 ?\n",
        "sg 3\nl 0 1\nl 0 2\ne 2 1 *\ne 1 1 +\n",
        "sg 3\nl 5 1\ne 0 1 +\n# e 0 0 +\ne 0 1 -\n",
        "sg 3\nq 1\ne 0 9 +\n",
    ):
        found = _outcome(parse_instance, text, 3)
        assert found[0] == "error" and found[2] == text.count("\n")
        assert found == _outcome(ref_parse_instance, text, 3)
    # List lines ahead of, between and after the edge lines.
    rng = random.Random(5)
    inst = random_instance(rng, 30, build_hl(5), p_edge=0.2)
    body = ["e %d %d %s" % (u, v, c.value) for u, v, c in inst.g.edges]
    body += ["l %d %s" % (v, " ".join(map(str, l))) for v, l in enumerate(inst.lists) if v % 3]
    for lines in (body[::-1], sorted(body, key=lambda line: line[0] == "e"), rng.sample(body, len(body))):
        text = "sg 30\n" + "\n".join(lines)
        assert _outcome(parse_instance, text, 8) == _outcome(ref_parse_instance, text, 8)
        assert parse_instance(text, 8).lists == tuple(
            l if v % 3 else frozenset(range(8)) for v, l in enumerate(inst.lists))


def test_parse_instance_peaks_under_twice_the_instance_it_returns():
    # Bytes, not time: a parser that held every line's tokens until the end
    # peaked at about 4.5 times the instance on this path.
    h = build_hl(5)
    text = planted_path_text(random.Random(3), h, 20_000)
    tracemalloc.start()
    try:
        inst = parse_instance(text, h.n)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.g.n == 20_000 and len(inst.g.edges) == 19_999
    assert peak <= 2 * size, (peak, size)


def test_parse_instance_peaks_under_1_3_times_the_instance_it_returns():
    # Bytes, not time: a parser that held the list of all the text's lines
    # and a map of every edge peaked at about 1.5 times the instance here.
    h = build_hl(5)
    text = planted_path_text(random.Random(3), h, 20_000)
    tracemalloc.start()
    try:
        inst = parse_instance(text, h.n)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.g.n == 20_000 and len(inst.g.edges) == 19_999
    assert peak <= 1.3 * size, (peak, size)


def test_parse_instance_builds_no_colour_map():
    # Bytes, not time: the colour map is built on its first read, so reading
    # it after the parse adds a large share of the instance's own size.
    h = build_hl(5)
    text = planted_path_text(random.Random(3), h, 20_000)
    tracemalloc.start()
    try:
        inst = parse_instance(text, h.n)
        size = tracemalloc.get_traced_memory()[0]
        assert "_colour" not in vars(inst.g)
        inst.g._colour
        grown = tracemalloc.get_traced_memory()[0] - size
    finally:
        tracemalloc.stop()
    assert grown >= 0.4 * size, (grown, size)
    assert "_colour" not in vars(parse_graph(serialize_graph(h)))


def test_quadcsp_round_trip():
    csp = parse_quadcsp("v p\nv q\nq p q p q\nq q q q q\n")
    assert csp.vars == ("p", "q")
    assert csp.quads == (("p", "q", "p", "q"), ("q", "q", "q", "q"))
    assert parse_quadcsp(serialize_quadcsp(csp)) == csp


def test_quadcsp_serialize_example():
    csp = QuadCsp(("p",), (("p", "p", "p", "p"),))
    assert serialize_quadcsp(csp) == "v p\nq p p p p\n"


def test_parse_quadcsp_errors():
    with pytest.raises(ParseError, match="undeclared variable") as e:
        parse_quadcsp("v p\nq p q p q")
    assert (e.value.line, e.value.col) == (2, 5)
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_quadcsp("v p\nv p")
    with pytest.raises(ParseError, match="'q <a> <b> <c> <d>'"):
        parse_quadcsp("q")
    with pytest.raises(ParseError, match="variable lines are 'v <name>'"):
        parse_quadcsp("v a b")


def test_quadcsp_parsing_is_linear():
    # Looking names up in a list made parsing quadratic: four times as many
    # variables and quadruples took about 18 times as long. Each round times
    # both sizes back to back, so a burst of load cannot land on one only.
    texts = {}
    for k in (2_000, 8_000):
        rng = random.Random(k)
        lines = ["v x%d" % i for i in range(k)]
        lines += ["q " + " ".join("x%d" % rng.randrange(k) for _ in range(4)) for _ in range(k)]
        texts[k] = "\n".join(lines)
    best = {k: float("inf") for k in texts}
    for _ in range(5):
        for k, text in texts.items():
            best[k] = min(best[k], took(lambda: parse_quadcsp(text)))
    assert best[8_000] / best[2_000] < 8


def test_serialize_graph_is_canonical():
    a = serialize_graph(build_hl(5))
    b = serialize_graph(parse_graph(a))
    assert a == b


# Tokens for texts that are mostly near-valid in each of the three formats,
# with the whitespace str.split() knows (tabs, vertical tab, form feed) and
# the line breaks str.splitlines() knows.
_WORDS = ("sg", "e", "l", "v", "q", "z", "0", "1", "2", "3", "-1", "10", "x", "+1", "1_0", "+", "-", "*", "?")
_GAPS = (" ", "  ", "\t", "\x0b", "\x0c")
_BREAKS = ("\n", "\r\n", "\r")

_line_st = st.tuples(
    st.lists(st.tuples(st.sampled_from(_GAPS + ("",)), st.sampled_from(_WORDS)), max_size=6),
    st.sampled_from(_GAPS + ("",)),
    st.one_of(st.just(""), st.sampled_from(_WORDS).map(lambda w: "# " + w)),
).map(lambda t: "".join(gap + word for gap, word in t[0]) + t[1] + t[2])


@st.composite
def _text_st(draw):
    lines = draw(st.lists(_line_st, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, "sg %d" % draw(st.integers(min_value=0, max_value=4)))
    return "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)


def _outcome(parse, *args):
    try:
        found = parse(*args)
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    if hasattr(found, "lists"):
        return ("ok", found.g, found.lists)
    return ("ok", found)


@given(_text_st())
@settings(max_examples=400, deadline=None)
def test_parsers_match_the_column_tracking_references(text):
    assert _outcome(parse_graph, text) == _outcome(ref_parse_graph, text)
    assert _outcome(parse_instance, text, 3) == _outcome(ref_parse_instance, text, 3)
    assert _outcome(parse_quadcsp, text) == _outcome(ref_parse_quadcsp, text)


def _scrambled_text(rng, inst, lists=True):
    """The instance as text with its edge and list lines shuffled, stray
    whitespace, comments and blank lines, and mixed LF and CRLF breaks."""
    body = ["e %d %d %s" % (v, u, c.value) if rng.random() < 0.5 else "e %d %d %s" % (u, v, c.value)
            for u, v, c in inst.g.edges]
    if lists:
        body += ["l %d %s" % (v, " ".join(map(str, l))) for v, l in enumerate(inst.lists) if rng.random() < 0.8]
    rng.shuffle(body)
    lines = ["# scrambled", "sg %d" % inst.g.n]
    for line in body:
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "# e 0 0 +")))
        lines.append(rng.choice(("", " ", "\t")) + line.replace(" ", rng.choice((" ", "  ", "\t")))
                     + rng.choice(("", " ", " # note", "\t#")))
    return lines


@pytest.mark.parametrize("n, p_edge", [(100, 0.4), (1000, 0.02)])
def test_parsers_match_the_references_on_large_scrambled_texts(n, p_edge):
    rng = random.Random(n)
    h = build_hl(5)
    inst = random_instance(rng, n, h, p_edge=p_edge)
    for parse, ref, lists, args in (
        (parse_graph, ref_parse_graph, False, ()),
        (parse_instance, ref_parse_instance, True, (h.n,)),
    ):
        lines = _scrambled_text(rng, inst, lists)
        text = "".join(line + rng.choice(("\n", "\r\n")) for line in lines)
        found, expected = parse(text, *args), ref(text, *args)
        if lists:
            assert found.lists == expected.lists
            found, expected = found.g, expected.g
        assert found.edges == expected.edges == inst.g.edges
        assert found.adj_mask == expected.adj_mask
        assert found.bic_mask == expected.bic_mask
        assert all(found.colour(u, v) is expected.colour(u, v) for u in range(n) for v in range(n))
        # One error on the last line: an edge that repeats an earlier one.
        u, v, c = inst.g.edges[-1]
        bad = text + "e\t%d  %d %s  # again\n" % (v, u, c.value)
        with pytest.raises(ParseError, match="duplicate edge") as e:
            parse(bad, *args)
        assert _outcome(parse, bad, *args) == _outcome(ref, bad, *args)
        assert (e.value.line, e.value.col) == (len(lines) + 1, 3)


def _read_outcome(read, text, target_n):
    try:
        g, lists, bad = read(text, target_n)
    except (ParseError, MemoryError) as e:
        return (type(e), str(e))
    return (g.n, g.edges, lists, bad)


def _edge_lines(rng, n, tail):
    """Edge lines of a random graph on n vertices in key order, with about
    every third pair swapped; with tail, the lines after a random point are
    shuffled and some edges come again, before and after that point."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    lines = ["e %d %d %s" % (((v, u) if rng.random() < 0.3 else (u, v)) + (rng.choice("+-*"),))
             for u, v in pairs]
    if tail and lines:
        cut = rng.randrange(len(lines))
        rest = lines[cut:]
        rng.shuffle(rest)
        lines[cut:] = rest
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(lines) + 1)
            lines.insert(at, "e %d %d %s" % (pairs[rng.randrange(len(pairs))] + (rng.choice("+-*"),)))
    return lines


def test_read_matches_the_colour_map_reference():
    """_read against the parser that filed every edge in a colour map and
    held the list of all the text's lines: the graph, the lists and the bad
    line, or the exception's type and message, on each text."""
    rng = random.Random(11)
    texts = []
    for _ in range(300):
        n = rng.randrange(2, 12)
        lines = ["sg %d" % n] + _edge_lines(rng, n, tail=rng.random() < 0.6)
        lines += ["l %d %d %d" % (rng.randrange(n), rng.randrange(4), rng.randrange(4))
                  for _ in range(rng.randrange(4))]
        if rng.random() < 0.5:
            lines[1:] = rng.sample(lines[1:], len(lines) - 1)
        for _ in range(rng.randrange(4)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "  ", "# e 0 0 +", "\t# c")))
        breaks = rng.choice((("\n",), ("\r\n",), ("\n", "\r\n", "\r", "\x0b")))
        texts.append("".join(line + rng.choice(breaks) for line in lines))
    # A duplicate after the first key that does not rise, and one before it.
    texts += ["sg 4\ne 0 1 +\ne 0 2 -\ne 1 3 *\ne 0 3 +\ne 2 0 -\n",
              "sg 4\ne 0 1 +\ne 1 0 -\ne 0 3 +\ne 0 2 +\n"]
    # Every error kind, and each line that _read hands back unread.
    texts += ["", "# only\n\n", "e 0 1 +\n", "sg\n", "sg 1 2\n", "sg x\n", "sg -1\n",
              "sg 3\ne 0 1\n", "sg 3\ne x 1 +\n", "sg 3\ne 0 x +\n", "sg 3\ne 0 1 ?\n",
              "sg 3\ne 5 1 +\n", "sg 3\ne 1 5 +\n", "sg 3\ne 1 1 +\n", "sg 3\ne 0 1 +\ne 0 1 -\n",
              "sg 3\ne 0 2 +\ne 0 1 +\ne 2 0 *\n", "sg 3\nz 1\ne 0 1 +\n", "sg 3\nl 0 9\nl 1 x\n",
              "sg 3\nl 0 1\nl 0 2\n", "sg 3\nl 4 1\n", "sg 3\nl\n", "sg %d\nl 0 1\n" % 2**64,
              "sg %d\ne 1 0 +\nz\n" % 2**62, "sg %d\nz\ne 1 1 +\n" % 2**64]
    # Texts over one piece long, whose first piece ends on a '\r\n' or a
    # blank line, with edge lines on both sides and bad lines after it.
    n = 300
    edges = _edge_lines(random.Random(3), n, tail=False)
    for seq in ("\r\n", "\r\n\r\n", "\n\n", "\n\r\n\n", "\r\r\n"):
        for shift in range(-3, 4):
            head = "sg %d\r\n%s\r\n# " % (n, "\r\n".join(edges[:50]))
            pad = "x" * (_PIECE + shift - len(head))
            tail = "\n".join(edges[50:] + ["e 0 1 -", "l 3 1 2", "q"]) + "\n"
            texts.append(head + pad + seq + tail)
    # Many pieces of edge lines, in key order, then past a falling key.
    big = _edge_lines(random.Random(5), 300, tail=False)
    texts.append("sg 300\n" + "\r\n".join(big) + "\r\n")
    texts.append("sg 300\n" + "\n".join(big + [big[0].replace("+", "-"), big[-1]]) + "\n")
    texts.append("sg 300\n" + "\n".join(big[len(big) // 2:] + big[:len(big) // 2]) + "\n")
    assert sum(len(t) > 2 * _PIECE for t in texts) >= 3
    for text in texts:
        for target_n in (None, 4):
            found = _read_outcome(_read, text, target_n)
            assert found == _read_outcome(ref_read, text, target_n), text[:200]
