"""Command-line front end and the canonical target enumerator."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, List, Sequence, Tuple

from .sgcore import BICOLOURED, BLUE, RED, SignedGraph, Switching, _bits
from .classify import POLYNOMIAL, classify, verdict_dict
from .files import parse_graph, parse_instance, parse_quadcsp, serialize_graph, serialize_instance
from .hardness import build_reduction
from .solver import Solution, check_solution, solve


def enum_targets(kind: str, max_n: int) -> Iterator[SignedGraph]:
    """Canonical separable targets: one representative per relabeling and
    switching class, smallest sizes first."""
    if kind == "path":
        if max_n > 14:
            raise ValueError("path enumeration capped at 14 vertices")
        for n in range(1, max_n + 1):
            chords = [(i, j) for i in range(n) for j in range(i + 3, n, 2)]
            reflect = [n - 1 - i for i in range(n)]
            yield from _classes(n, chords, [reflect], [[(i, i + 1, BLUE) for i in range(n - 1)]])
    elif kind == "cycle":
        if max_n > 12:
            raise ValueError("cycle enumeration capped at 12 vertices")
        for n in range(4, max_n + 1, 2):
            # Chords join ring positions an odd distance of 3 to n - 3 apart.
            chords = [(i, j) for i in range(n) for j in range(i + 3, min(n, i + n - 2), 2)]
            dihedral = [[(r + s * i) % n for i in range(n)] for r in range(n) for s in (1, -1)]
            ring = [(i, i + 1, BLUE) for i in range(n - 1)]
            yield from _classes(n, chords, dihedral, [ring + [(0, n - 1, c)] for c in (BLUE, RED)])
    else:
        raise ValueError("unknown kind %r" % kind)


def _classes(
    n: int, chords: List[Tuple[int, int]], perms: List[List[int]], bases: List[list]
) -> Iterator[SignedGraph]:
    """For each set of bicoloured chords, as a mask over chords, that no
    vertex permutation in perms maps to a smaller mask: one graph per base
    edge list, in mask order."""
    index = {ch: k for k, ch in enumerate(chords)}
    images = [[1 << index[min(p[i], p[j]), max(p[i], p[j])] for i, j in chords] for p in perms]
    for mask in range(1 << len(chords)):
        ks = list(_bits(mask))
        if any(sum(image[k] for k in ks) < mask for image in images):
            continue
        extra = [(*chords[k], BICOLOURED) for k in ks]
        for base in bases:
            yield SignedGraph(n, base + extra)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload) -> None:
    print(json.dumps(payload))


def _cmd_solve(args) -> int:
    target = parse_graph(_read(args.target))
    inst = parse_instance(_read(args.instance), target.n)
    stats: dict = {}
    sol = solve(target, inst, args.alg, stats)
    _emit(
        {
            "decision": "no" if sol is None else "yes",
            "map": None if sol is None else list(sol.mapping),
            "switch": None if sol is None else sorted(sol.switching.flipped),
            "stats": {"backtracks": stats["backtracks"]},
        }
    )
    return 1 if sol is None else 0


def _cmd_classify(args) -> int:
    verdict = classify(parse_graph(_read(args.target)))
    _emit(verdict_dict(verdict))
    return 0 if verdict.complexity == POLYNOMIAL else 1


def _cmd_witness(args) -> int:
    witness = verdict_dict(classify(parse_graph(_read(args.target))))["witness"]
    _emit(witness)
    return 1 if witness is None else 0


def _cmd_ordering(args) -> int:
    ordering = verdict_dict(classify(parse_graph(_read(args.target))))["ordering"]
    if ordering is None:
        print("no ordering: target classified NP-complete", file=sys.stderr)
        return 1
    _emit(ordering)
    return 0


def _cmd_gadget(args) -> int:
    csp = parse_quadcsp(_read(args.csp))
    sys.stdout.write(serialize_instance(build_reduction(csp, args.ell)))
    return 0


def _cmd_enum(args) -> int:
    for g in enum_targets(args.kind, args.max_n):
        _emit({"graph": serialize_graph(g), "verdict": verdict_dict(classify(g))})
    return 0


def _cmd_verify(args) -> int:
    target = parse_graph(_read(args.target))
    inst = parse_instance(_read(args.instance), target.n)
    data = json.loads(_read(args.solution))
    if not isinstance(data, dict) or "map" not in data or "switch" not in data:
        raise ValueError("solution file needs map and switch entries")
    for key in ("map", "switch"):
        # bool is a subclass of int, so true would pass an isinstance check.
        if not isinstance(data[key], list) or any(type(x) is not int for x in data[key]):
            raise ValueError("solution %s must be a list of vertex ids" % key)
    sol = Solution(
        mapping=tuple(data["map"]), switching=Switching(data["switch"])
    )
    problems = check_solution(inst, target, sol)
    _emit({"valid": not problems, "problems": problems})
    return 0 if not problems else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sephom",
        description="Dichotomy tools for list homomorphism to separable signed graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("classify", help="classify a target file")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_classify)
    p = sub.add_parser("solve", help="solve an instance against a target")
    p.add_argument("target")
    p.add_argument("instance")
    p.add_argument("--alg", choices=("auto", "h1", "ordered", "oracle"), default="auto")
    p.set_defaults(fn=_cmd_solve)
    p = sub.add_parser("oracle", help="solve with the exhaustive oracle")
    p.add_argument("target")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_solve, alg="oracle")
    p = sub.add_parser("witness", help="hardness witness for a target")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_witness)
    p = sub.add_parser("ordering", help="special min ordering for a target")
    p.add_argument("target")
    p.set_defaults(fn=_cmd_ordering)
    p = sub.add_parser("gadget", help="compile a quadruple CSP to an instance")
    p.add_argument("csp")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(fn=_cmd_gadget)
    p = sub.add_parser("enum", help="stream canonical targets with verdicts")
    p.add_argument("--type", dest="kind", choices=("path", "cycle"), required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.set_defaults(fn=_cmd_enum)
    p = sub.add_parser("verify", help="check a solution file")
    p.add_argument("target")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(fn=_cmd_verify)
    return parser


_PARSER = _parser()


def run(argv: Sequence[str]) -> int:
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as stop:
        return int(stop.code or 0)
    code = 0  # the verb's own code survives a reader that has gone
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
        return code
    except BrokenPipeError:
        # Silence the flush at exit too, as the Python docs' note on SIGPIPE advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    # ParseError and json.JSONDecodeError are ValueErrors.
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


__all__ = ["enum_targets", "run", "main"]
