"""The README's examples run as written and print what it shows."""

import json
import os
import re

from sephom import BICOLOURED, BLUE, SignedGraph
from sephom.cli import run
from sephom.files import serialize_graph, serialize_instance
from sephom.solver import Instance

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"```%s\n(.*?)```" % lang, text, re.S)


def _examples(block):
    """(argv, shown output) for each '$ sephom ...' line of a shell block;
    the output is the non-blank lines up to the next command."""
    examples = []
    for line in block.splitlines():
        if line.startswith("$ sephom "):
            examples.append((line.split()[2:], []))
        elif line.strip() and examples:
            examples[-1][1].append(line)
    return [(argv, " ".join(shown)) for argv, shown in examples]


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    return SignedGraph(n, edges + [(i, j, BICOLOURED) for i, j in bic])


def test_the_library_block_runs_as_written():
    (block,) = _blocks("python")
    exec(compile(block, README, "exec"), {})


def test_the_command_line_examples_print_what_the_readme_shows(tmp_path, capsys, monkeypatch):
    # p8 is the library block's target, p6 a path with two blocks one apart,
    # inst.sg the 3-vertex blue path with full lists.
    p8 = blue_path(8, [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)])
    (tmp_path / "p8.sg").write_text(serialize_graph(p8))
    (tmp_path / "p6.sg").write_text(serialize_graph(blue_path(6, [(0, 3), (2, 5)])))
    (tmp_path / "inst.sg").write_text(serialize_instance(Instance(blue_path(3), [range(8)] * 3)))
    monkeypatch.chdir(tmp_path)
    block = next(b for b in _blocks("sh") if "$ sephom classify" in b)
    examples = _examples(block)
    assert [argv[0] for argv, _ in examples] == [
        "classify", "classify", "solve", "ordering", "witness",
    ]
    for argv, shown in examples:
        expected = json.loads(shown)
        rc = run(argv)
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert rc == (1 if expected.get("complexity") == "NPC" else 0)
