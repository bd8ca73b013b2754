"""The four benchmark workloads.

Each workload builds its inputs from a seeded ``random.Random`` in
``setup``, runs one operation per ``call`` (the only timed code), and
checks each output in ``check`` with the clock stopped. Calls into sephom
go through module attributes looked up at call time, so the tracer's
wrappers see them.

``check`` returns an ``Outcome`` whose facts the run aggregates: string and
boolean facts are counted by value, numeric facts are summed and averaged.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import corpus
from sephom.sgcore import SignedGraph, Switching
from sephom.solver import Instance, Solution
from sephom.ordering import Ordering
from sephom.witness import Chain, InvertiblePair

cli = importlib.import_module("sephom.cli")
classify_mod = importlib.import_module("sephom.classify")
files = importlib.import_module("sephom.files")
hardness = importlib.import_module("sephom.hardness")
ordering = importlib.import_module("sephom.ordering")
solver = importlib.import_module("sephom.solver")
targets = importlib.import_module("sephom.targets")
witness = importlib.import_module("sephom.witness")

# Failure kinds that mean a wrong answer reached the user, as opposed to a
# crash (an exception escaping the call) that produced no answer.
WRONG_OUTPUT = ("exit_code", "rejected_certificate", "invalid_solution", "disagreement")


@dataclass
class Op:
    key: int
    vertices: int
    target: str
    args: tuple
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """What the check found: a failure kind (None when correct), the
    vertices the op decided, and facts for the counters."""

    failure: Optional[str] = None
    vertices: int = 0
    facts: Dict[str, object] = field(default_factory=dict)


def _largest_component(g: SignedGraph) -> int:
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _ in g.edges:
        parent[find(u)] = find(v)
    return max(Counter(find(v) for v in range(g.n)).values(), default=0)


def _instance_probe(pairs) -> dict:
    """Share of vertices whose list is a singleton after arc consistency,
    and the largest connected component, over (instance, target) pairs."""
    shares, wipeouts, largest = [], 0, 0
    for inst, h in pairs:
        lists = solver.arc_consistency(inst, h)
        if lists is None:
            wipeouts += 1
        else:
            shares.append(sum(len(l) == 1 for l in lists) / max(1, len(lists)))
        largest = max(largest, _largest_component(inst.g))
    return {
        "singleton_share_after_ac": sum(shares) / len(shares) if shares else 0.0,
        "ac_wipeouts": wipeouts,
        "largest_component": largest,
    }


class Workload:
    """A fixed, seeded set of ops, sized so that one pass over them takes
    two to three seconds of the unchanged library on a 2-vCPU x86 machine:
    in a fifteen-second window every op runs several times, and the median of
    its runs is its latency."""

    name = ""

    def setup(self, rng: random.Random, workdir: str, tiny: bool) -> List[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Outcome:
        raise NotImplementedError

    def inputs(self, distinct: Dict[int, Op], attempted: int) -> dict:
        """Input-property counters over the distinct inputs run."""
        raise NotImplementedError


class Classify(Workload):
    """Every canonical path and cycle target with n <= 9 (among them cycles
    whose NP-complete verdict carries no witness, whatever the seed), a
    seeded sample of the 37,048 canonical targets with n = 10, and seeded
    random targets at n = 16..64: disguised Hl and H1 templates, segmented
    paths, random paths and cycles. All n <= 10 targets are enumerated in
    set-up; a pass over all of them would take longer than a run. Each
    target is shown under a random relabelling and switching; an op is
    parse_graph -> classify -> verdict_dict."""

    name = "classify"

    def setup(self, rng, workdir, tiny):
        max_n = 6 if tiny else 10
        shapes = list(cli.enum_targets("path", max_n)) + list(cli.enum_targets("cycle", max_n))
        shapes = [g for g in shapes if g.n < max_n] + rng.sample(
            [g for g in shapes if g.n == max_n], 20 if tiny else 1500)
        ops = [
            Op(k, g.n, "enum", (corpus.graph_text(g.n, corpus.disguise(g.n, g.edges, rng)),))
            for k, g in enumerate(shapes)
        ]
        # The large targets follow a fixed schedule of kind, size and chord
        # density, so the tail, which they set, does not hang on the seed.
        for k in range(20 if tiny else 400):
            kind = ("hl", "h1", "seg", "path", "cycle")[k % 5]
            n = 16 if tiny else 16 + (k // 5) * 48 // 79
            density = (0.02, 0.1, 0.2, 0.3)[k // 5 % 4]
            expect = "P"
            if kind == "hl":
                g = targets.build_hl(n - 3 - n % 2)
                n, edges = g.n, g.edges
            elif kind == "h1":
                g = targets.build_h1()
                n, edges = g.n, g.edges
            elif kind == "seg":
                edges = corpus.segmented_path(n, rng)
            elif kind == "path":
                edges, expect = corpus.random_path(n, rng, density), None
            else:
                n -= n % 2
                edges, expect = corpus.random_cycle(n, rng, density), None
            text = corpus.graph_text(n, corpus.disguise(n, edges, rng))
            ops.append(Op(len(ops), n, kind, (text,), {"expect": expect}))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        g = files.parse_graph(op.args[0])
        return classify_mod.verdict_dict(classify_mod.classify(g))

    def check(self, op, out):
        g = files.parse_graph(op.args[0])
        complexity = out["complexity"]
        reason = out["reason"].split("(")[0] if out["reason"].startswith("MatchesHl") else out["reason"]
        facts = {"reason": reason, "npc": complexity == "NPC"}
        failure = None
        if op.info.get("expect") not in (None, complexity):
            failure = "disagreement"
        elif complexity == "P":
            o = out["ordering"]
            try:
                o = Ordering(tuple(o["black"]), tuple(o["white"]))
                ok = ordering.verify_min_ordering(g, o) is None and ordering.verify_special(g, o) is None
            except (TypeError, ValueError):
                ok = False
            if not ok:
                failure = "rejected_certificate"
        else:
            w = out["witness"]
            facts["certified"] = False
            if w is not None:
                if w["kind"] == "chain":
                    facts["chain_len"] = len(w["U"]) - 1
                    ok = witness.verify_chain(g, Chain(tuple(w["U"]), tuple(w["D"])))
                elif w["kind"] == "invertible_pair":
                    pair = InvertiblePair(w["a"], w["b"], tuple(w["U"]), tuple(w["D"]))
                    ok = witness.verify_invertible_pair(g, pair)
                else:
                    ok = False
                facts["certified"] = ok
                if not ok:
                    failure = "rejected_certificate"
        return Outcome(failure, op.vertices, facts)

    def inputs(self, distinct, attempted):
        return {
            "ops_per_target": attempted / max(1, len(distinct)),
            "largest_component": max(op.vertices for op in distinct.values()),
            "target_kinds": dict(Counter(op.target for op in distinct.values())),
        }


class Reduction(Workload):
    """Seeded random quadruple CSPs, each compiled with build_reduction at
    ell = 5 and ell = 7 and decided by solve_oracle. Eight in nine are
    criterion-5-shaped (2..4 variables, 1..3 quads); the rest have 5..8
    variables and 4..12 quads (up to about 180 instance vertices). The
    relation holds on all-equal tuples, so every system is satisfiable."""

    name = "reduction"

    def setup(self, rng, workdir, tiny):
        self.target = {ell: targets.build_reduction_target(ell) for ell in (5, 7)}
        self.satisfiable: Dict[int, bool] = {}
        self.oracle_best: Dict[int, float] = {}
        ops = []
        # Sizes follow a fixed schedule. The large systems set the tail; there
        # are enough of them that it lies well inside their range, so it is
        # not set by the few hardest ones a seed happens to draw.
        for k in range(20 if tiny else 1200):
            if k % 9:
                csp, shape = corpus.random_quadcsp(rng, 2 + k % 3, 1 + k // 9 % 3), "c5"
            else:
                csp, shape = corpus.random_quadcsp(rng, 5 + k // 9 % 4, 4 + k // 36 % 9), "large"
            for ell in (5, 7):
                ops.append(Op(len(ops), 0, "ell=%d" % ell, (csp, ell), {"shape": shape}))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        csp, ell = op.args
        inst = hardness.build_reduction(csp, ell)
        stats: dict = {}
        t0 = time.perf_counter()
        sol = solver.solve_oracle(inst, self.target[ell], stats)
        oracle_s = time.perf_counter() - t0
        self.oracle_best[op.key] = min(oracle_s, self.oracle_best.get(op.key, oracle_s))
        return sol, stats["backtracks"], inst.g.n

    def check(self, op, out):
        sol, backtracks, n = out
        csp, ell = op.args
        if op.key not in self.satisfiable:
            self.satisfiable[op.key] = hardness.csp_solve(csp) is not None
        shape = op.info["shape"]
        facts = {"decision": "yes" if sol else "no", "route": "oracle", "shape": shape,
                 "backtracks.oracle": backtracks}
        if (sol is not None) != self.satisfiable[op.key]:
            return Outcome("disagreement", n, facts)
        if sol is not None and solver.check_solution(hardness.build_reduction(csp, ell), self.target[ell], sol):
            return Outcome("invalid_solution", n, facts)
        return Outcome(None, n, facts)

    def inputs(self, distinct, attempted):
        pairs = ((hardness.build_reduction(*op.args), self.target[op.args[1]]) for op in distinct.values())
        # Each op's fastest solve_oracle call, averaged per shape and ell:
        # the criterion-5 slice compares with the 0.47 and 1.65 ms baseline.
        oracle_ms: Dict[str, List[float]] = {}
        for op in distinct.values():
            slice_ = "%s.ell=%d" % (op.info["shape"], op.args[1])
            oracle_ms.setdefault(slice_, []).append(self.oracle_best[op.key] * 1e3)
        return dict(_instance_probe(pairs), ops_per_target=attempted / 2,
                    oracle_ms_per_op={k: sum(v) / len(v) for k, v in sorted(oracle_ms.items())})


class _Solve(Workload):
    """Shared part of the two solve workloads: inputs are files, and each op
    is one in-process ``cli.run`` of the ``solve`` verb, as a user invokes
    it, with stdout and stderr captured."""

    def _write(self, workdir: str, name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _targets(self, rng, workdir, shapes) -> None:
        """Disguise and write each (name, route of --alg auto, graph)."""
        self.graphs: Dict[str, SignedGraph] = {}
        self.paths: Dict[str, str] = {}
        self.route: Dict[str, str] = {}
        for name, route, g in shapes:
            edges = corpus.disguise(g.n, g.edges, rng)
            self.graphs[name] = SignedGraph(g.n, edges)
            self.paths[name] = self._write(workdir, name + ".sg", corpus.graph_text(g.n, edges))
            self.route[name] = route
        self.instances: Dict[int, Instance] = {}
        self.expected: Dict[int, bool] = {}

    def _op(self, ops, workdir, tname, inst, planted: bool, alg) -> None:
        key = len(ops)
        path = self._write(workdir, "i%d.sg" % key, corpus.instance_text(inst.g, inst.lists))
        self.instances[key] = inst
        route = "oracle" if alg == "oracle" else self.route[tname]
        ops.append(Op(key, inst.g.n, tname, (["solve", self.paths[tname], path, "--alg", alg],),
                      {"route": route, "planted": planted}))

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(op.args[0])
        return status, out.getvalue()

    def _expected(self, op) -> Optional[bool]:
        """The known answer: yes for planted instances."""
        return True if op.info["planted"] else None

    def check(self, op, out):
        status, text = out
        route = op.info["route"]
        facts = {"route": route}
        try:
            payload = json.loads(text)
        except ValueError:
            return Outcome("exit_code", op.vertices, facts)
        decision = payload.get("decision")
        facts.update({"decision": decision, "backtracks." + route: payload.get("stats", {}).get("backtracks", 0)})
        if (status, decision) not in ((0, "yes"), (1, "no")):
            return Outcome("exit_code", op.vertices, facts)
        expected = self._expected(op)
        if expected is not None and expected != (decision == "yes"):
            return Outcome("disagreement", op.vertices, facts)
        if decision == "yes":
            sol = Solution(tuple(payload["map"]), Switching(payload["switch"]))
            if solver.check_solution(self.instances[op.key], self.graphs[op.target], sol):
                return Outcome("invalid_solution", op.vertices, facts)
        return Outcome(None, op.vertices, facts)

    def inputs(self, distinct, attempted):
        names = {op.target for op in distinct.values()}
        probe = _instance_probe((self.instances[op.key], self.graphs[op.target]) for op in distinct.values())
        return dict(probe, ops_per_target=attempted / max(1, len(names)),
                    target_reasons={t: classify_mod.classify(self.graphs[t]).reason for t in sorted(names)})


class SolveBatch(_Solve):
    """Many small instances (10 to 40 vertices), half planted "yes" and half
    with random lists, against a fixed set of disguised P targets: H1,
    Hl(ell) for ell up to 61, and segmented paths up to n = 64 drawn from a
    fixed seed per size, all on the auto route. Each call re-parses and re-classifies its target, so
    per-target work dominates and the solve itself is cheap."""

    name = "solve-batch"

    def setup(self, rng, workdir, tiny):
        ells = (5, 9) if tiny else (5, 9, 15, 21, 31, 41, 51, 61)
        sizes = (8, 12) if tiny else (8, 16, 32, 64)
        shapes = [("h1", "h1", targets.build_h1())]
        shapes += [("hl%d" % ell, "ordered", targets.build_hl(ell)) for ell in ells]
        shapes += [("seg%d" % n, "ordered", SignedGraph(n, corpus.segmented_path(n, random.Random(n))))
                   for n in sizes]
        self._targets(rng, workdir, shapes)
        ops: List[Op] = []
        for tname, _, _ in shapes:
            h = self.graphs[tname]
            # Sizes on a fixed, evenly spaced schedule, planted and random-list
            # instances in turn, so the work per pass does not hang on the
            # seed and the median op is the middle one of its target's nine.
            for k in range(2 if tiny else 9):
                n = 10 + 30 * k // 8
                if k % 2:
                    inst = corpus.planted_instance(h, n, n // 3, 2, rng)
                else:
                    inst = corpus.random_lists_instance(h, n, n // 3, rng)
                self._op(ops, workdir, tname, inst, bool(k % 2), "auto")
        rng.shuffle(ops)
        return ops

    def _expected(self, op):
        """Planted instances are yes; the others are decided by the oracle."""
        if op.info["planted"]:
            return True
        if op.key not in self.expected:
            inst = self.instances[op.key]
            self.expected[op.key] = solver.solve_oracle(inst, self.graphs[op.target]) is not None
        return self.expected[op.key]


class SolveLarge(_Solve):
    """Connected planted instances of 10^2 and 10^3 vertices against small
    disguised P targets (H1, Hl(5), an 8-vertex segmented path) through the
    CLI, on the auto and the oracle route. Per-target work is negligible;
    parsing, arc consistency, search depth, GF(2) and check_solution
    dominate. There is no 10^4-vertex op: parse_instance checks each edge
    against all earlier ones, so one such op takes about 8 s, a whole run."""

    name = "solve-large"

    def setup(self, rng, workdir, tiny):
        seg = SignedGraph(8, corpus.segmented_path(8, random.Random(8)))
        shapes = [("h1", "h1", targets.build_h1()), ("hl5", "ordered", targets.build_hl(5)),
                  ("seg8", "ordered", seg)]
        self._targets(rng, workdir, shapes)
        small, mid = (30, 60) if tiny else (100, 1000)
        ops: List[Op] = []

        def planted(tname: str, n: int, alg: str) -> None:
            # The oracle is exponential in general. It gets trees, on which
            # maintained arc consistency never backtracks, so its ops stay
            # bounded while still exercising its propagation and recursion.
            extra = 0 if alg == "oracle" else n // 10
            inst = corpus.planted_instance(self.graphs[tname], n, extra, 2, rng)
            self._op(ops, workdir, tname, inst, True, alg)

        for tname, _, _ in shapes:
            planted(tname, mid, "auto")
            planted(tname, mid, "oracle")
            for _ in range(30):
                planted(tname, small, "auto")
            for _ in range(12):
                planted(tname, small, "oracle")
        return ops


WORKLOADS = {w.name: w for w in (Classify(), Reduction(), SolveBatch(), SolveLarge())}
