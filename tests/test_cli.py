"""The command-line verbs, their exit codes, and the target enumerator."""

import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from sephom import (
    BLUE,
    SignedGraph,
    build_h1,
    build_hl,
    build_reduction_target,
    classify,
    enum_targets,
    relabel,
    switching_equivalent,
    verdict_dict,
)
from sephom import hardness
from sephom.cli import run
from sephom.files import parse_instance, serialize_graph, serialize_instance
from sephom.solver import Instance, Solution, check_solution
from sephom.sgcore import BICOLOURED, Switching

P8_BIC = [(0, 3), (0, 5), (0, 7), (2, 5), (2, 7), (4, 7)]


def blue_path(n, bic=()):
    edges = [(i, i + 1, BLUE) for i in range(n - 1)]
    edges += [(i, j, BICOLOURED) for i, j in bic]
    return SignedGraph(n, edges)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def target_file(tmp_path, g, name="target.sg"):
    return write(tmp_path, name, serialize_graph(g))


def instance_file(tmp_path, inst, name="instance.sg"):
    return write(tmp_path, name, serialize_instance(inst))


def payload(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out)


def test_enum_counts_are_cumulative():
    assert [sum(1 for _ in enum_targets("path", n)) for n in range(1, 9)] == [
        1, 2, 3, 5, 8, 20, 56, 344,
    ]
    assert [sum(1 for _ in enum_targets("cycle", n)) for n in (4, 6, 8)] == [
        2, 10, 70,
    ]
    # Order and edges too: the serialized targets hash as they always have.
    digest = hashlib.sha256()
    for kind, n in (("path", 9), ("cycle", 10)):
        for g in enum_targets(kind, n):
            digest.update(serialize_graph(g).encode())
    assert digest.hexdigest() == (
        "bf8e8dd749a5b2bddc863b8fb74616b2ca2fedc2b91f548678d97c0b90c8d31c"
    )
    # And so do the verdicts of the same 6,262 targets, in the same order.
    digest = hashlib.sha256()
    for kind, n in (("path", 9), ("cycle", 10)):
        for g in enum_targets(kind, n):
            digest.update(json.dumps(verdict_dict(classify(g))).encode())
    assert digest.hexdigest() == (
        "29a8eca6fab7339d5aab79630b6e539bfd3a686c15bfdefc12713a955a3bc8c3"
    )


def test_enum_validation():
    with pytest.raises(ValueError, match="capped"):
        next(enum_targets("path", 15))
    with pytest.raises(ValueError, match="capped"):
        next(enum_targets("cycle", 13))
    with pytest.raises(ValueError, match="unknown kind"):
        next(enum_targets("tree", 5))


def test_enum_yields_pairwise_inequivalent_targets():
    for kind, n in (("path", 6), ("cycle", 6)):
        graphs = list(enum_targets(kind, n))
        for a, b in itertools.combinations(graphs, 2):
            if a.n == b.n:
                assert switching_equivalent(a, b) is None


def test_classify_verb(tmp_path, capsys):
    rc = run(["classify", target_file(tmp_path, build_hl(5))])
    d = payload(capsys)
    assert rc == 0
    assert d["complexity"] == "P"
    assert d["reason"] == "MatchesHl(5)"
    assert d["ordering"] == {"white": [0, 2, 4, 7], "black": [5, 3, 1, 6]}

    rc = run(["classify", target_file(tmp_path, blue_path(6, [(0, 3), (2, 5)]))])
    d = payload(capsys)
    assert rc == 1
    assert d["complexity"] == "NPC"
    assert d["witness"]["kind"] == "chain"


def test_solve_auto_on_a_segmented_path(tmp_path, capsys):
    target = blue_path(8, P8_BIC)
    inst = Instance(blue_path(3), [range(8)] * 3)
    rc = run(
        [
            "solve",
            target_file(tmp_path, target),
            instance_file(tmp_path, inst),
        ]
    )
    d = payload(capsys)
    assert rc == 0
    assert d["decision"] == "yes"
    assert d["stats"]["backtracks"] == 0
    sol = Solution(mapping=tuple(d["map"]), switching=Switching(d["switch"]))
    assert check_solution(inst, target, sol) == []


def test_solve_auto_no_answer(tmp_path, capsys):
    target = blue_path(8, P8_BIC)
    inst = Instance(SignedGraph(2, [(0, 1, BLUE)]), [[0], [0]])
    rc = run(
        ["solve", target_file(tmp_path, target), instance_file(tmp_path, inst)]
    )
    d = payload(capsys)
    assert rc == 1
    assert d["decision"] == "no"
    assert d["map"] is None


def test_solve_auto_routes_relabeled_h1(tmp_path, capsys):
    target = relabel(build_h1(), [3, 5, 1, 0, 4, 2])
    inst = Instance(blue_path(4), [range(6)] * 4)
    rc = run(
        ["solve", target_file(tmp_path, target), instance_file(tmp_path, inst)]
    )
    d = payload(capsys)
    assert rc == 0
    assert d["decision"] == "yes"
    sol = Solution(mapping=tuple(d["map"]), switching=Switching(d["switch"]))
    assert check_solution(inst, target, sol) == []


def test_solve_on_a_deep_path(tmp_path, capsys):
    # A 5,000-vertex path is deeper than Python's default recursion limit.
    n = 5_000
    target = SignedGraph(2, [(0, 1, BLUE)])
    inst = Instance(blue_path(n), [range(2)] * n)
    t, i = target_file(tmp_path, target), instance_file(tmp_path, inst)
    for alg in ("auto", "oracle"):
        rc = run(["solve", t, i, "--alg", alg])
        d = payload(capsys)
        assert rc == 0
        assert d["decision"] == "yes"


def test_solve_reports_an_invalid_solution_as_an_error(tmp_path, capsys, monkeypatch):
    target = blue_path(2)
    inst = Instance(blue_path(2), [range(2)] * 2)
    t, i = target_file(tmp_path, target), instance_file(tmp_path, inst)
    bad = Solution(mapping=(0, 0), switching=Switching())
    monkeypatch.setattr("sephom.solver.solve_oracle", lambda *args: bad)
    rc = run(["solve", t, i, "--alg", "oracle"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: solver returned an invalid solution" in captured.err


def test_solve_rejects_np_complete_targets_without_the_oracle(tmp_path, capsys):
    target = blue_path(6, [(0, 3), (2, 5)])
    inst = Instance(blue_path(2), [range(6)] * 2)
    t, i = target_file(tmp_path, target), instance_file(tmp_path, inst)
    rc = run(["solve", t, i])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--alg oracle" in err

    rc = run(["solve", t, i, "--alg", "ordered"])
    assert rc == 2

    rc = run(["solve", t, i, "--alg", "oracle"])
    d = payload(capsys)
    assert rc == 0
    assert d["decision"] == "yes"


def test_oracle_verb_is_solve_with_the_oracle(tmp_path, capsys):
    target = blue_path(6, [(0, 3), (2, 5)])
    inst = Instance(blue_path(2), [range(6)] * 2)
    rc = run(
        ["oracle", target_file(tmp_path, target), instance_file(tmp_path, inst)]
    )
    d = payload(capsys)
    assert rc == 0
    assert d["decision"] == "yes"


def test_solve_alg_h1_requires_an_equivalent_target(tmp_path, capsys):
    target = blue_path(4)
    inst = Instance(blue_path(2), [range(4)] * 2)
    rc = run(
        [
            "solve",
            target_file(tmp_path, target),
            instance_file(tmp_path, inst),
            "--alg",
            "h1",
        ]
    )
    assert rc == 2
    assert "not equivalent" in capsys.readouterr().err


def test_solve_alg_ordered_rejects_h1(tmp_path, capsys):
    target = build_h1()
    inst = Instance(blue_path(2), [range(6)] * 2)
    rc = run(
        [
            "solve",
            target_file(tmp_path, target),
            instance_file(tmp_path, inst),
            "--alg",
            "ordered",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# n * 8 > sys.maxsize: CPython refuses the vertex list before allocating it.
# The second count is above sys.maxsize itself, so no list length can hold it.
OVERSIZED = ("sg 2000000000000000000\n", "sg 99999999999999999999999\n")


def test_oversized_vertex_counts_exit_2(tmp_path, capsys):
    for header in OVERSIZED:
        big = write(tmp_path, "big.sg", header)
        rc = run(["classify", big])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"
        rc = run(["solve", target_file(tmp_path, blue_path(2)), big])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


def test_witness_verb(tmp_path, capsys):
    rc = run(["witness", target_file(tmp_path, blue_path(6, [(0, 3), (2, 5)]))])
    d = payload(capsys)
    assert rc == 0
    assert d["kind"] == "chain"

    rc = run(["witness", target_file(tmp_path, build_hl(5))])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "null"


def test_ordering_verb(tmp_path, capsys):
    rc = run(["ordering", target_file(tmp_path, blue_path(8, P8_BIC))])
    d = payload(capsys)
    assert rc == 0
    assert d == {"white": [0, 2, 4, 6], "black": [7, 5, 3, 1]}

    rc = run(["ordering", target_file(tmp_path, blue_path(6, [(0, 3), (2, 5)]))])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "NP-complete" in captured.err


def test_gadget_verb(tmp_path, capsys):
    csp_path = write(tmp_path, "csp.txt", "v p\nv q\nq p q p q\n")
    rc = run(["gadget", csp_path, "--ell", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    inst = parse_instance(out, 8)
    assert inst.g.n == 16


def test_gadget_self_checks_exit_2(tmp_path, capsys, monkeypatch):
    csp_path = write(tmp_path, "csp.txt", "v p\nv q\nq p q p q\n")
    # A gadget built by an earlier test would skip the self-checks; failed
    # builds are not cached, so one clear serves both faults.
    hardness.build_gadget.cache_clear()
    monkeypatch.setattr("sephom.hardness.gf2_solve", lambda system: None)
    assert run(["gadget", csp_path, "--ell", "5"]) == 2
    assert "no solution" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr("sephom.hardness.walk_sign", lambda g, walk: "?")
    assert run(["gadget", csp_path, "--ell", "5"]) == 2
    assert "wrong sign" in capsys.readouterr().err


def test_enum_verb(tmp_path, capsys):
    rc = run(["enum", "--type", "path", "--max-n", "5"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 8
    for line in lines:
        d = json.loads(line)
        assert set(d) == {"graph", "verdict"}
        assert d["verdict"]["complexity"] in ("P", "NPC")


def test_verify_verb(tmp_path, capsys):
    target = blue_path(2)
    inst = Instance(blue_path(2), [range(2)] * 2)
    t = target_file(tmp_path, target)
    i = instance_file(tmp_path, inst)
    good = write(tmp_path, "good.json", json.dumps({"map": [0, 1], "switch": []}))
    rc = run(["verify", t, i, good])
    d = payload(capsys)
    assert rc == 0
    assert d == {"valid": True, "problems": []}

    bad = write(tmp_path, "bad.json", json.dumps({"map": [0, 0], "switch": []}))
    rc = run(["verify", t, i, bad])
    d = payload(capsys)
    assert rc == 1
    assert d["valid"] is False
    assert d["problems"]

    short = write(tmp_path, "short.json", json.dumps({"mapping": [0, 1]}))
    assert run(["verify", t, i, short]) == 2
    garbled = write(tmp_path, "garbled.json", "{not json")
    assert run(["verify", t, i, garbled]) == 2
    for k, entries in enumerate(
        [
            {"map": ["x", 1], "switch": []},
            {"map": [0, 1], "switch": [[1]]},
            {"map": 5, "switch": []},
            {"map": [0, 1], "switch": 3},
            {"map": [0, True], "switch": []},
            {"map": [0.0, 1], "switch": []},
        ]
    ):
        malformed = write(tmp_path, "malformed%d.json" % k, json.dumps(entries))
        assert run(["verify", t, i, malformed]) == 2
        assert "must be a list of vertex ids" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, capsys):
    broken = write(tmp_path, "broken.sg", "sg 2\ne 0 9 +\n")
    rc = run(["classify", broken])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err

    assert run(["classify", str(tmp_path / "missing.sg")]) == 2

    star = SignedGraph(4, [(0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)])
    assert run(["classify", target_file(tmp_path, star)]) == 2

    assert run([]) == 2
    assert run(["frobnicate"]) == 2


def test_the_module_entry_point_exits_with_the_verdict(tmp_path):
    """python -m sephom runs __main__ and cli.main, whose exit status is the
    one the process reports: 0 for P, 1 for NPC, 2 for an error."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    triangle = SignedGraph(3, [(0, 1, BLUE), (1, 2, BLUE), (0, 2, BLUE)])
    for path, code, shown in (
        (target_file(tmp_path, build_hl(5)), 0, '"reason": "MatchesHl(5)"'),
        (target_file(tmp_path, triangle, "triangle.sg"), 1, '"reason": "NonBipartite"'),
        (str(tmp_path / "missing.sg"), 2, "No such file or directory"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sephom", "classify", path],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == code
        assert shown in (done.stderr if code == 2 else done.stdout)


def test_a_reader_that_has_gone_is_no_error(tmp_path):
    """`sephom enum ... | head -1` exits 0 with nothing on stderr, and
    classify and gadget writing into a pipe whose reader closed first keep
    their own exit codes, with nothing on stderr either. The
    child's stdout is block-buffered, as under a shell, so their short
    outputs meet the closed pipe only when flushed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    sephom = [sys.executable, "-m", "sephom"]
    proc = subprocess.Popen(
        sephom + ["enum", "--type", "path", "--max-n", "10"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert json.loads(line)["verdict"]["reason"] == "Segmented(TrivialPath)"
    assert (proc.returncode, err) == (0, b"")
    csp = write(tmp_path, "csp.txt", "v p\nv q\nq p q q p\n")
    for args, code in (
        (["classify", target_file(tmp_path, build_hl(5))], 0),
        (["classify", target_file(tmp_path, build_reduction_target(5), "hard.sg")], 1),
        (["gadget", csp, "--ell", "5"], 0),
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                sephom + args, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, b"")
