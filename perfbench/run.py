"""Benchmark of the knotslope CLI on three fixed workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scan-long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each operation is one in-process call of ``knotslope.cli.main(argv)`` with
stdout captured, parsed and checked against the sympy oracle
(``oracle.py``) and the properties in ``checks.py``.  The load is a closed
loop: one call at a time from this single thread; ``scan`` and ``verify``
run their own thread pool inside the program.  A run repeats whole rounds
of the workload's operations until ``--seconds`` have passed.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced replay with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# siblings in perfbench/, on sys.path as the script's directory
import checks
import oracle as oracle_mod
import tracing
from twobridge import branch_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: meridian arc ``r0,r1,theta0,theta1`` sampled by scan and verify
ARC = "1.1,1.6,0.1,1.0"
#: set-ups timed per run, due at even intervals of the run and made between
#: rounds, so that a slow moment of the machine is one sample of many;
#: setup_s is their median
SETUP_PROBES = 12
#: rounds replayed with spans on; a fixed number, so that per-round counts
#: do not depend on how many rounds the untraced part managed
TRACED_ROUNDS = 2
BUNDLED_BRANCHES = {"trefoil": 1, "figure8": 2}


@dataclass(frozen=True)
class Op:
    command: str
    knot: str
    samples: int = 0
    #: a fault the operation hits every time; its arguments are pinned so
    #: that they do not depend on the seed
    fault: str | None = None
    arc: str = ARC

    def argv(self, target: str, cli_seed: int) -> list[str]:
        if self.command == "apoly":
            return ["apoly", target]
        seed = 0 if self.fault else cli_seed
        return [self.command, target, "--samples", str(self.samples),
                "--seed", str(seed), "--arc", self.arc]


WORKLOADS = {
    "scan-long": [Op("scan", "b11_3", 16), Op("scan", "b13_5", 16)],
    "verify-short": [
        Op("verify", "trefoil", 60), Op("verify", "figure8", 40),
        Op("verify", "b7_3", 24), Op("verify", "b9_5", 16),
        # D2: linalg.as_sl2 raises an untyped ValueError inside adjoint_of
        Op("verify", "b9_7", 1, fault="D2",
           arc="1.9932890709584585,1.9932890709584585,"
              "0.873951875915761,0.873951875915761"),
        # F1: invariant_vector's single tol*s0 cut drops the meridian
        # constraint and reports a 2-dimensional invariant subspace
        Op("verify", "b9_1", 1, fault="F1", arc="1.9,1.9,0.5,0.5"),
    ],
    "apoly-ladder": [Op("apoly", k)
                     for k in ("b7_3", "b9_7", "b11_3", "b13_5", "b15_11")],
}
WARMUP = {
    "scan-long": Op("scan", "b11_3", 1),
    "verify-short": Op("verify", "trefoil", 2),
    "apoly-ladder": Op("apoly", "b7_3"),
}


@dataclass
class Result:
    op: Op
    round: int
    wall: float
    items: int = 0
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    deviation: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.ops = WORKLOADS[workload]
        knots = sorted({op.knot for op in self.ops + [WARMUP[workload]]})
        self.oracle = oracle_mod.load(ROOT, knots)
        self.numeric = {k: checks.NumericOracle(e)
                        for k, e in self.oracle.items()}
        WORK.mkdir(exist_ok=True)
        self.targets = {}
        self.files = []
        for knot in knots:
            if knot in BUNDLED_BRANCHES:
                self.targets[knot] = knot
                continue
            path = WORK / f"{knot}.txt"
            path.write_text(self.oracle[knot]["text"], encoding="utf-8")
            self.targets[knot] = str(path)
            self.files.append(str(path))
        for knot, entry in self.oracle.items():
            problems = checks.check_presentation(entry)
            if problems:
                raise SystemExit(f"presentation {knot}: {'; '.join(problems)}")
        import knotslope.cli
        self.cli = knotslope.cli

    def branches(self, knot: str) -> int:
        if knot in BUNDLED_BRANCHES:
            return BUNDLED_BRANCHES[knot]
        return branch_count(oracle_mod.KNOTS[knot][0])

    def run_op(self, op: Op, rnd: int, k: int) -> Result:
        cli_seed = (self.seed * 7919 + rnd * 101 + k) % 1_000_003
        argv = op.argv(self.targets[op.knot], cli_seed)
        out, err = io.StringIO(), io.StringIO()
        error = None
        # start every call from an empty young generation, as a fresh CLI
        # process would, so collections triggered by earlier calls' garbage
        # do not land at random in later ones
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception fails this operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        res = Result(op, rnd, time.perf_counter() - t0,
                     out_bytes=len(out.getvalue().encode()))
        if error or rc != 0:
            msg = error or f"exit code {rc}: {err.getvalue().strip()[-200:]}"
            if op.command == "verify" and rc == 1:  # FAIL: name the cause
                samples = json.loads(out.getvalue())["samples"]
                msg += "; " + next((s["error"] for s in samples if s["error"]),
                                   "a deviation above tolerance")
            res.problems.append(msg)
            return res
        try:
            self._check(op, json.loads(out.getvalue()), res)
        except (ValueError, KeyError, TypeError) as exc:
            res.problems.append(f"unreadable output: {exc!r}")
        return res

    def _check(self, op: Op, payload, res: Result) -> None:
        if op.command == "apoly":
            res.items = 1
            res.problems += checks.check_apoly(payload, self.oracle[op.knot])
            return
        want = op.samples * self.branches(op.knot)
        if op.command == "scan":
            records = payload
            bad = [r for r in records
                   if r["verdict"] != "admissible" or r["error"] is not None]
            if bad:
                res.problems.append(f"{len(bad)} records not admissible: "
                                    f"{bad[0]['verdict']} {bad[0]['error']}")
            L_key = "L"
        else:
            records = payload["samples"]
            if payload["verdict"] != "PASS":
                res.problems.append("verify verdict is not PASS")
            if not all(s["ok"] and s["error"] is None for s in records):
                res.problems.append("a verify sample is not ok")
            L_key = None
        if len(records) != want:
            res.problems.append(f"{len(records)} records, expected {want}")
        problems, worst = checks.check_records(
            records, self.numeric[op.knot], self.branches(op.knot), op.knot,
            L_key=L_key)
        res.problems += problems
        res.items = len(records)
        res.deviation = (payload["max_relative_deviation"]
                         if op.command == "verify" else worst)

    def run_round(self, rnd: int) -> list[Result]:
        return [self.run_op(op, rnd, k) for k, op in enumerate(self.ops)]


def time_setup(files: list[str]) -> float:
    """Wall time of one set-up in a fresh interpreter, from starting it to
    the end of the set-up (the probe prints the monotonic clock there)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           str(ROOT), *files], check=True, capture_output=True,
                          text=True, timeout=120)
    return float(proc.stdout.split()[-1]) - t0


def work_per_s(rounds: list[list[Result]]) -> float:
    """Median over rounds of items checked per second of passing calls."""
    rates = []
    for results in rounds:
        ok = [r for r in results if r.ok]
        wall = sum(r.wall for r in ok)
        if wall > 0:
            rates.append(sum(r.items for r in ok) / wall)
    return statistics.median(rates) if rates else 0.0


def agree_digits(results: list[Result], command: str) -> float:
    devs = [r.deviation for r in results
            if r.ok and r.op.command == command and r.deviation is not None]
    return -math.log10(max(max(devs), 1e-17)) if devs else 0.0


def environment() -> str:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        pass
    return (f"cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "knotslope" / "__init__.py").is_file():
        print(f"error: no knotslope sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import knotslope
    if Path(knotslope.__file__).resolve().parent != (src / "knotslope").resolve():
        print("error: knotslope was not imported from this checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    env = environment()
    print(f"env: {env}")
    bench.run_op(WARMUP[args.workload], -1, 0)
    # objects alive now (modules, oracle, caches) are never garbage; keep
    # full collections from scanning them, as in a fresh CLI process
    gc.collect()
    gc.freeze()

    budget = args.seconds / 2 if args.trace else args.seconds
    probes = 0 if args.trace else SETUP_PROBES
    setups: list[float] = []
    rounds: list[list[Result]] = []
    start = time.perf_counter()
    while (len(rounds) < (TRACED_ROUNDS if args.trace else 1)
           or time.perf_counter() - start < budget):
        rounds.append(bench.run_round(len(rounds)))
        due = min(probes, math.ceil((time.perf_counter() - start)
                                    / budget * probes))
        setups += [time_setup(bench.files) for _ in range(due - len(setups))]
    setups += [time_setup(bench.files) for _ in range(probes - len(setups))]
    results = [r for rnd in rounds for r in rnd]

    if args.trace:
        metrics, traced = traced_replay(bench, rounds)
        results += traced
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "work_per_s": (work_per_s(rounds), "1/s"),
        }

    failed = [r for r in results if not r.ok]
    unexpected = [r for r in failed if not r.op.fault]
    first = {}
    for r in failed:
        first.setdefault((r.op.command, r.op.knot), r)
    for r in first.values():
        label = f"fault {r.op.fault}" if r.op.fault else "UNEXPECTED"
        print(f"failed ({label}): {r.op.command} {r.op.knot} round {r.round}: "
              f"{r.problems[0]}", file=sys.stderr)
    summarize(bench, rounds, env)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print each metric by name
    with its unit, and each workload's operations attempted and failed."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = out = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']}")
        for name, m in out["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def summarize(bench: Bench, rounds: list[list[Result]], env: str) -> None:
    """Print the median wall time per operation and record every call of
    the run in ``.perfbench_work/run-<workload>-seed<seed>.json``."""
    per_op: dict[tuple[str, str], list[float]] = {}
    for results in rounds:
        for r in results:
            per_op.setdefault((r.op.command, r.op.knot), []).append(r.wall)
    for (command, knot), walls in per_op.items():
        print(f"op {command} {knot}: median {statistics.median(walls):.4f} s "
              f"over {len(walls)} calls")
    record = {"env": env, "workload": bench.workload, "seed": bench.seed,
              "rounds": [[{"command": r.op.command, "knot": r.op.knot,
                           "wall_s": r.wall, "items": r.items, "ok": r.ok}
                          for r in results] for results in rounds]}
    path = WORK / f"run-{bench.workload}-seed{bench.seed}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def traced_replay(bench: Bench, rounds: list[list[Result]]):
    """Replay the first rounds with spans on; per-layer metrics per round."""
    tracer = tracing.Tracer()
    tracer.install()
    # the set-up pass: bundled presentations with their checks, then the
    # generated ones, as setup_probe.py does
    tracer.originals["data.load_builtin"].cache_clear()
    import knotslope.data
    import knotslope.presentation
    for name in knotslope.data.builtin_names():
        knotslope.data.load_builtin(name)
    for path in bench.files:
        knotslope.presentation.parse_presentation(Path(path).read_text())
    traced = []
    for rnd in range(TRACED_ROUNDS):
        tracer.round = rnd
        traced.append(bench.run_round(rnd))
    tracer.write(WORK / f"trace-{bench.workload}.csv")

    metrics = tracing.layer_metrics(tracer.spans(), TRACED_ROUNDS)
    untraced_wall = sum(r.wall for rnd in rounds[:TRACED_ROUNDS] for r in rnd)
    traced_wall = sum(r.wall for rnd in traced for r in rnd)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall) / TRACED_ROUNDS
    metrics["cli.output_bytes"] = sum(r.out_bytes for rnd in traced
                                      for r in rnd) / TRACED_ROUNDS
    metrics["verify.agree_digits"] = agree_digits(rounds[0], "verify")
    metrics["scan.agree_digits"] = agree_digits(rounds[0], "scan")
    untraced = [r for rnd in rounds for r in rnd]
    for op in WORKLOADS["apoly-ladder"]:
        walls = [r.wall for r in untraced if r.op == op and r.ok]
        metrics[f"apoly.{op.knot}_s"] = (statistics.median(walls) if walls
                                         else 0.0)
    return ({k: (metrics[k], unit) for k, unit in PER_LAYER_UNITS},
            [r for rnd in traced for r in rnd])


#: per-layer metrics in the order they are printed, with their units
PER_LAYER_UNITS = [
    ("presentation.parse_s", "s"), ("data.load_builtin.s", "s"),
    ("presentation.fox_derivative.calls", "count"),
    ("presentation.fox_derivative.s", "s"),
    ("presentation.fox_derivative.distinct_ratio", "ratio"),
    ("slope.augment.calls", "count"),
    ("slope.build_twisted_alexander.calls", "count"),
    ("slope.build_twisted_alexander.s", "s"),
    ("slope.matrix_cells", "count"),
    ("representations.evaluate_word.calls", "count"),
    ("representations.evaluate_word.letters", "count"),
    ("linalg.adjoint_of.calls", "count"), ("linalg.adjoint_of.s", "s"),
    ("linalg.as_sl2.calls", "count"),
    ("representations.riley_family.calls", "count"),
    ("representations.riley_family.s", "s"),
    ("representations.branches_per_call", "ratio"),
    ("representations.invariant_vector.s", "s"),
    ("representations.boundary_data.s", "s"),
    ("linalg.orthonormal_row_basis.calls", "count"),
    ("linalg.orthonormal_row_basis.s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.s", "s"),
    ("apoly.log_gauss.calls", "count"), ("apoly.log_gauss.s", "s"),
    ("apoly.riley_polynomial.s", "s"), ("apoly.resultant_t.s", "s"),
    ("apoly.sylvester_dim", "count"), ("apoly.resultant_terms", "count"),
    ("apoly.coeff_bits_max", "bits"), ("apoly.squarefree_part.s", "s"),
    ("apoly.squarefree_part.total_s", "s"),
    ("apoly.bilaurent_gcd.calls", "count"), ("apoly.newton_polygon.s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
    ("verify.agree_digits", "digits"), ("scan.agree_digits", "digits"),
    ("apoly.b7_3_s", "s"), ("apoly.b9_7_s", "s"), ("apoly.b11_3_s", "s"),
    ("apoly.b13_5_s", "s"), ("apoly.b15_11_s", "s"),
]


if __name__ == "__main__":
    sys.exit(main())
