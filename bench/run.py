"""Benchmark for sephom: one closed-loop client in one thread.

    python3 bench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Each op is issued only after the previous one returns. Inputs come from
``--seed``; the program sees only the generated inputs. After every few
milliseconds of timed work the clock stops, the machine's current speed is
measured with a fixed calibration loop, and the outputs are checked. Times
are the thread's CPU time, reported at a fixed reference speed (see
``measure``). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced run, with its overhead) with ``--trace 1``. The line
before it is a report with run metadata, the failure taxonomy and
input-property counters.

``--workload all`` runs every workload, each in a fresh interpreter.
``--selftest`` runs every workload at a tiny size in both modes and checks
that each metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up runs at least this many times and for at least this long; its
# median is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_SAMPLE_S = 0.05
# The machine's speed is measured again, and the outputs checked, with the
# clock stopped, after this much timed work.
CALIBRATE_EVERY_S = 0.02
# Reported times are scaled to a machine on which the calibration loop
# takes this long.
REFERENCE_S = 1e-3
# Times are CPU time of this thread. Time in which the host runs another
# guest on the virtual CPU (steal) or the guest runs another process is
# not counted; sephom computes and never waits.
CLOCK = time.thread_time


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_digest() -> str:
    """SHA-256 over the package sources, which names the code under test
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sephom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _percentile(sorted_values, permille: int) -> float:
    """Nearest-rank percentile of a sorted list, p given in tenths of a percent."""
    rank = -(-len(sorted_values) * permille // 1000)
    return sorted_values[max(rank, 1) - 1]


def _tail(sorted_values):
    """The highest percentile of a fixed ladder with at least ten samples
    beyond it: (value, percentile, samples beyond). Each workload runs a
    fixed set of ops, so the percentile chosen depends on the workload only."""
    n = len(sorted_values)
    for p in (999, 990, 900, 750, 500):
        beyond = n + (n * p // -1000)
        if beyond >= 10 or p == 500:
            return _percentile(sorted_values, p), p / 10, beyond


def _calibration_loop() -> int:
    """Fixed pure-Python work on sets, tuples and frozensets, the data
    structures sephom itself uses, but none of its code. Of the loops tried,
    this one's time follows the machine's changes of speed most closely."""
    seen, lists = set(), []
    for i in range(2500):
        seen.add((i % 17, i % 5))
        if i % 3 == 0:
            lists.append(frozenset((i, i + 1, i % 7)))
    total = len(seen)
    for values in lists:
        for v in values:
            total += v
    return total


def calibrate() -> float:
    """Seconds the calibration loop takes now, with the collector off."""
    gc.disable()
    try:
        t0 = CLOCK()
        _calibration_loop()
        return CLOCK() - t0
    finally:
        gc.enable()


class Tally:
    """What the checks of one timed window found. An op's output is checked
    the first time and again whenever it differs from the one last checked;
    its facts are counted once, so they describe the distinct ops."""

    def __init__(self):
        self.attempted = 0  # runs of ops
        self.ok = 0  # runs whose output passed its check
        self.ok_vertices = 0  # vertices decided by those runs
        self.scaled_s = 0.0  # time of all runs at the reference speed
        self.failures: Counter = Counter()  # failed runs, by kind
        self.latency: dict = {}  # op key -> its runs' latencies at the reference speed
        self.failed_ops: set = set()  # keys of ops with a failed run
        self.checked: dict = {}  # op key -> (output, outcome) last checked
        self.counts: Counter = Counter()  # (fact, value) for string and boolean facts
        self.sums: Counter = Counter()  # numeric facts
        self.samples: Counter = Counter()  # how many ops gave each numeric fact
        self.distinct: dict = {}

    def add(self, wl, op, scaled_s, out, err) -> None:
        self.attempted += 1
        self.scaled_s += scaled_s
        key = op.key
        last = self.checked.get(key)
        if err is not None:
            outcome = workloads.Outcome(err, op.vertices, {"route": op.info.get("route")})
        elif last is not None and last[0] == out:
            outcome = last[1]
        else:
            outcome = wl.check(op, out)
            self.checked[key] = (out, outcome)
        self.latency.setdefault(key, []).append(scaled_s)
        if outcome.failure is None:
            self.ok += 1
            self.ok_vertices += outcome.vertices
        else:
            self.failures[outcome.failure] += 1
            self.failed_ops.add(key)
        if key in self.distinct:
            return
        self.distinct[key] = op
        for name, value in outcome.facts.items():
            if isinstance(value, (bool, str)) or value is None:
                self.counts[(name, value)] += 1
            else:
                self.sums[name] += value
                self.samples[name] += 1

    def mean(self, name: str) -> float:
        return self.sums[name] / self.samples[name] if self.samples[name] else 0.0

    def summary(self) -> dict:
        by_fact: dict = {}
        for (name, value), n in sorted(self.counts.items(), key=str):
            by_fact.setdefault(name, {})[str(value)] = n
        by_fact.update({"mean " + k: self.mean(k) for k in sorted(self.sums)})
        return by_fact


def set_up(wl, args, workdir, tracer):
    """Build the inputs. Untraced, set-up runs SETUP_REPEATS times and at
    least SETUP_MIN_S in all, and the median of its times is reported;
    traced, it runs once with the tracer installed. A set-up cannot be cut
    into chunks, so the calibration loop runs from a timer signal every
    SETUP_SAMPLE_S while it lasts, and once before and after; its own time
    is taken out, and the rest is scaled to the reference speed by the mean
    of the samples."""
    times = []
    samples: list = []
    spent = [0.0]

    def sample(signum, frame):
        t0 = CLOCK()
        samples.append(calibrate())
        spent[0] += CLOCK() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        while not times or tracer is None and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S):
            samples[:] = [calibrate()]
            spent[0] = 0.0
            if tracer is not None:
                tracer.install()
            signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_S, SETUP_SAMPLE_S)
            t0 = CLOCK()
            ops = wl.setup(random.Random(args.seed), workdir, args.tiny)
            elapsed = CLOCK() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
            samples.append(calibrate())
            times.append((elapsed - spent[0]) * REFERENCE_S / statistics.mean(samples))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return ops, times


def measure(wl, ops, seconds, tracer=None):
    """Closed loop: passes over ``ops`` in their fixed order until ``seconds``
    of timed work are done, and at least one whole pass, so that every op
    runs at least once. After each CALIBRATE_EVERY_S of timed work the clock
    stops, the tracer is removed, the calibration loop is timed and the
    outputs are checked. The speed a shared machine gives one thread changes
    whatever the program does (by up to 1.5x, for seconds to minutes, on a
    2-vCPU Xeon VM), so each run's latency is scaled to the reference speed
    by the mean of the calibration times just before and after it. Returns
    the tally and the timed seconds as measured."""
    clock = CLOCK
    tally = Tally()
    timed = 0.0
    passes = 0
    gc.collect()
    speed = calibrate()
    while True:
        i = 0
        while i < len(ops):
            runs, spent, stop = [], 0.0, False
            if tracer is not None:
                tracer.install()
            while i < len(ops) and spent < CALIBRATE_EVERY_S:
                op = ops[i]
                i += 1
                if tracer is not None:
                    tracer.op = tally.attempted + len(runs)
                t0 = clock()
                try:
                    out, err = wl.call(op), None
                except Exception as exc:  # a crash is a failed op, recorded by kind
                    out, err = None, type(exc).__name__
                latency = clock() - t0
                runs.append((op, latency, out, err))
                spent += latency
                if passes and timed + spent >= seconds:
                    stop = True
                    break
            if tracer is not None:
                tracer.uninstall()
            timed += spent
            before, speed = speed, calibrate()
            scale = 2 * REFERENCE_S / (before + speed)
            for op, latency, out, err in runs:
                tally.add(wl, op, latency * scale, out, err)
            if stop:
                return tally, timed
        passes += 1
        if timed >= seconds:
            return tally, timed


def end_to_end(tally, elapsed, setup_times, peak_rss_mb):
    """Times are at the reference speed (see measure). An op's latency is
    the median of its runs; a failed op counts as missing any limit."""
    lat = sorted(float("inf") if k in tally.failed_ops else statistics.median(tally.latency[k]) * 1e3
                 for k in tally.distinct)
    tail, p, beyond = _tail(lat)
    npc, certified = tally.counts[("npc", True)], tally.counts[("certified", True)]
    # Past the failed ops a percentile is unbounded; the window bounds it.
    window_ms = tally.scaled_s * 1e3
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": tally.ok / tally.scaled_s,
        "latency_p50_ms": min(_percentile(lat, 500), window_ms),
        "latency_tail_ms": min(tail, window_ms),
        "ok_ratio": 1.0 - len(tally.failed_ops) / len(lat),
        "vertices_per_s": tally.ok_vertices / tally.scaled_s,
        "peak_rss_mb": peak_rss_mb,
        "certified_ratio": certified / npc if npc else 1.0,
    }
    extra = {
        "ops": len(lat),
        "runs_per_op": tally.attempted / len(lat),
        "measured_ops_per_s": tally.ok / elapsed,
        "measured_s_per_reference_s": elapsed / tally.scaled_s,
        "latency_tail": {"percentile": p, "ops": len(lat), "beyond": beyond},
        "fail_ratio": len(tally.failed_ops) / len(lat),
        "failed_runs": tally.attempted - tally.ok,
        "uncertified_ratio": (npc - certified) / npc if npc else 0.0,
        "npc_verdicts": npc,
        "setup_runs": len(setup_times),
    }
    return metrics, extra


def per_layer(tracer, tally, untraced_rate):
    """Per-layer metrics from the spans of the traced window (ops 0..n-1;
    set-up spans carry op -1) and from the outputs of its ops."""
    n = tally.attempted
    calls, incl, self_s = tracer.totals(range(n))
    setup_incl = tracer.totals(range(-1, 0))[1]

    def module_self(module, exclude=()):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == module and k not in exclude)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(x):
        return ratio(x, n)

    solves = calls["cli.run"]
    metrics = {
        "files.parse_s": per_op(module_self("files")),
        "cli.self_s": per_op(module_self("cli", ("cli.enum_targets",))),
        "cli.classify_per_solve": ratio(calls["classify.classify"], solves),
        "cli.enum_targets_s": setup_incl["cli.enum_targets"],
        "classify.self_s": per_op(module_self("classify")),
        "separable.path_form_s": per_op(incl["separable.path_form"]),
        "separable.path_form_per_classify": ratio(calls["separable.path_form"], calls["classify.classify"]),
        "separable.cycle_form_s": per_op(incl["separable.cycle_form"]),
        "separable.segmented_form_s": per_op(incl["separable.segmented_form"]),
        "witness.find_chain_s": per_op(incl["witness.find_chain"]),
        "witness.find_invertible_pair_s": per_op(incl["witness.find_invertible_pair"]),
        "witness.chain_len_mean": tally.mean("chain_len"),
        "ordering.construct_s": per_op(incl["ordering.ordering_for_segmented"]
                                       + incl["ordering.ordering_for_cycle_target"]),
        "ordering.verify_s": per_op(incl["ordering.verify_min_ordering"] + incl["ordering.verify_special"]),
        "ordering.verify_per_solve": ratio(calls["ordering.verify_min_ordering"], solves),
        "sgcore.switching_equivalent_s": per_op(incl["sgcore.switching_equivalent"]),
        "sgcore.switching_equivalent_calls": per_op(calls["sgcore.switching_equivalent"]),
        "sgcore.normalize_s": per_op(incl["sgcore.is_semi_balanced"] + incl["sgcore.apply_switching"]
                                     + incl["sgcore.bipartition"]),
        "targets.build_per_solve": ratio(sum(v for k, v in calls.items() if k.startswith("targets.build")),
                                         solves),
        "hardness.build_reduction_s": per_op(incl["hardness.build_reduction"]),
        "hardness.build_gadget_per_reduction": ratio(calls["hardness.build_gadget"],
                                                     calls["hardness.build_reduction"]),
        "solver.oracle_s": per_op(incl["solver.solve_oracle"]),
        "solver.oracle_backtracks_per_solve": tally.mean("backtracks.oracle"),
        "solver.ordered_s": per_op(self_s["solver.solve_ordered"]),
        "solver.ordered_backtracks": tally.mean("backtracks.ordered"),
        "solver.h1_s": per_op(self_s["solver.solve_h1"]),
        "solver.gf2_s": per_op(incl["solver.gf2_solve"]),
        "solver.check_solution_s": per_op(incl["solver.check_solution"]),
        "solver.depth_failures": per_op(tally.failures["RecursionError"]),
        "trace.overhead": ratio(untraced_rate, tally.ok / tally.scaled_s),
    }
    extra = {"traced_ops_per_s": tally.ok / tally.scaled_s, "untraced_ops_per_s": untraced_rate,
             "spans": len(tracer.start)}
    return metrics, extra


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(), "src_sha256": _src_digest(), "loop": "closed, 1 client, 1 thread",
    }
    tracer = Tracer() if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        ops, setup_times = set_up(wl, args, workdir, tracer)
        if tracer is None:
            tally, elapsed = measure(wl, ops, args.seconds)
            failures = tally.failures
        else:
            # The same ops untraced, then traced: the rate ratio is the overhead.
            untraced, _ = measure(wl, ops, args.seconds / 2)
            tally, elapsed = measure(wl, ops, args.seconds / 2, tracer)
            failures = untraced.failures + tally.failures
        # Read before the input probes below, which are not part of a run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        inputs = wl.inputs(tally.distinct, tally.attempted)
    report.update(attempted=tally.attempted, failures_by_kind=dict(failures),
                  window_s=elapsed, outputs=tally.summary(), inputs=inputs)
    if tracer is None:
        metrics, extra = end_to_end(tally, elapsed, setup_times, peak_rss_mb)
    else:
        metrics, extra = per_layer(tracer, tally, untraced.ok / untraced.scaled_s)
        path = os.path.join(OUT, "spans-%s-seed%d.tsv" % (wl.name, args.seed))
        tracer.write(path)
        extra["spans_file"] = os.path.relpath(path, ROOT)
    report.update(extra)
    print(json.dumps({"report": report}))
    spec = _spec()["per_layer" if tracer else "end_to_end"]
    missing = set(metrics) ^ {m["name"] for m in spec}
    if missing:
        raise RuntimeError("metrics and BENCHMARK.json differ on %s" % sorted(missing))
    # An op is one input, run once per pass; it counts as failed if any of
    # its runs failed. Every op runs in every window, so both counts depend
    # on the inputs only, not on how many passes a window held.
    op_keys, failed_ops = set(tally.distinct), set(tally.failed_ops)
    if tracer is not None:
        op_keys |= set(untraced.distinct)
        failed_ops |= untraced.failed_ops
    print(json.dumps({
        "correct": not any(failures[k] for k in workloads.WRONG_OUTPUT),
        "attempted": len(op_keys),
        "failed": len(failed_ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print("error: workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode
        combined[name] = _last_json(proc.stdout)
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in combined.items() for k, v in r["metrics"].items()},
    }))
    return 0


def selftest() -> int:
    """Tiny run of every workload in both modes; every metric named in
    BENCHMARK.json must be emitted with its unit."""
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
            result = _last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1, (name, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, got)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print("ok %s trace=%d attempted=%d failed=%d" % (name, trace, result["attempted"], result["failed"]))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sephom", "__init__.py")):
        print("error: sephom sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    global workloads, Tracer
    import workloads
    from spans import Tracer

    if args.selftest:
        return selftest()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        p.error("unknown workload %r" % args.workload)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
