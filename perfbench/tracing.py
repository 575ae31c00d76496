"""Spans around knotslope's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper, in every ``knotslope`` module that holds a reference to
it, so calls made through ``from .linalg import adjoint_of`` are seen too.
A span records its name, start, end, parent, thread and round.  Spans are
kept in per-thread lists while the run lasts and written out at its end.

Self time is the CPU time of the thread that ran the span minus that of
its children on the same thread.  The CLI's thread pool makes wall-clock
spans overlap while one thread waits for the interpreter lock, so wall
durations would count the same second several times.  Pool threads start
with an empty stack; their top-level spans take the ``cli.main`` call in
progress as parent (the benchmark makes one CLI call at a time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("presentation", "data", "representations", "linalg", "slope",
          "apoly", "cli")


def _size_of(name: str, args, result):
    """Problem sizes recorded for the spans that have them."""
    if name == "presentation.fox_derivative":
        return (args[0], args[1])
    if name == "representations.evaluate_word":
        return len(args[1].letters)
    if name == "representations.riley_family":
        return len(result)
    if name == "slope.build_twisted_alexander":
        return int(result.matrix.size)
    if name == "apoly.resultant_t":
        bits = max((max(abs(c.numerator), c.denominator).bit_length()
                    for c in result.terms.values()), default=0)
        return (args[0].degree + args[1].degree, len(result.terms), bits)
    return None


class Tracer:
    def __init__(self):
        self.round = -1
        self.cli_span = 0
        self.originals: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[list[tuple]] = []

    def install(self) -> None:
        names = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"knotslope.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                names[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(obj, name)
                    for key, (name, obj) in names.items()}
        self.originals = {name: obj for name, obj in names.values()}
        for modname, mod in list(sys.modules.items()):
            if modname != "knotslope" and not modname.startswith("knotslope."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            return self._call(fn, name, args, kwargs)
        functools.update_wrapper(traced, fn)
        return traced

    def _call(self, fn, name, args, kwargs):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.spans = []
            self._buffers.append(local.spans)
        is_cli = name == "cli.main"
        sid = next(self._ids)
        parent = stack[-1][0] if stack else (0 if is_cli else self.cli_span)
        if is_cli:
            self.cli_span = sid
        frame = [sid, 0.0]
        stack.append(frame)
        size = None
        p0 = time.process_time() if is_cli else 0.0
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
            size = _size_of(name, args, result)
            return result
        finally:
            cpu = time.thread_time() - c0
            w1 = time.perf_counter()
            if is_cli:
                size = time.process_time() - p0
            stack.pop()
            if stack:
                stack[-1][1] += cpu
            local.spans.append((sid, parent, name, threading.get_ident(),
                                self.round, w0, w1, cpu, cpu - frame[1], size))

    def spans(self) -> list[tuple]:
        return sorted(s for buf in self._buffers for s in buf)

    def write(self, path) -> None:
        """Spans as CSV; times in microseconds, wall times from the first
        span's start, threads numbered in order of appearance."""
        spans = self.spans()
        t0 = min((s[5] for s in spans), default=0.0)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,thread,round,start_us,end_us,"
                     "cpu_us,self_cpu_us\n")
            for sid, parent, name, tid, rnd, w0, w1, cpu, self_cpu, _ in spans:
                th = threads.setdefault(tid, len(threads))
                fh.write(f"{sid},{parent},{name},{th},{rnd},"
                         f"{(w0 - t0) * 1e6:.0f},{(w1 - t0) * 1e6:.0f},"
                         f"{cpu * 1e6:.0f},{self_cpu * 1e6:.0f}\n")


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-round per-layer figures from the spans of rounds ``0..rounds-1``
    and the set-up pass (round -1)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    sizes: dict[str, list] = {}
    setup_self: dict[str, float] = {}
    cli_children_cpu: dict[int, float] = {}
    cli_process_cpu: dict[int, float] = {}
    fox_keys: dict[int, set] = {}
    for sid, parent, name, _, rnd, _, _, cpu, self_cpu, size in spans:
        if rnd < 0:
            setup_self[name] = setup_self.get(name, 0.0) + self_cpu
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_cpu
        total_s[name] = total_s.get(name, 0.0) + cpu
        if name == "cli.main":
            cli_process_cpu[sid] = size
        elif parent in cli_process_cpu:
            cli_children_cpu[parent] = cli_children_cpu.get(parent, 0.0) + cpu
        if name == "presentation.fox_derivative":
            fox_keys.setdefault(rnd, set()).add(size)
        elif size is not None:
            sizes.setdefault(name, []).append(size)
    fox_distinct = sum(len(k) for k in fox_keys.values())

    def c(name):
        return calls.get(name, 0) / rounds

    def s(name):
        return self_s.get(name, 0.0) / rounds

    res = sizes.get("apoly.resultant_t", [])
    riley_calls = calls.get("representations.riley_family", 0)
    fox_calls = calls.get("presentation.fox_derivative", 0)
    out = {
        "presentation.parse_s": setup_self.get(
            "presentation.parse_presentation", 0.0),
        "data.load_builtin.s": setup_self.get("data.load_builtin", 0.0),
        "presentation.fox_derivative.calls": c("presentation.fox_derivative"),
        "presentation.fox_derivative.s": s("presentation.fox_derivative"),
        "presentation.fox_derivative.distinct_ratio":
            fox_distinct / fox_calls if fox_calls else 0.0,
        "slope.augment.calls": c("slope.augment"),
        "slope.build_twisted_alexander.calls":
            c("slope.build_twisted_alexander"),
        "slope.build_twisted_alexander.s": s("slope.build_twisted_alexander"),
        "slope.matrix_cells":
            sum(sizes.get("slope.build_twisted_alexander", [])) / rounds,
        "representations.evaluate_word.calls":
            c("representations.evaluate_word"),
        "representations.evaluate_word.letters":
            sum(sizes.get("representations.evaluate_word", [])) / rounds,
        "linalg.adjoint_of.calls": c("linalg.adjoint_of"),
        "linalg.adjoint_of.s": s("linalg.adjoint_of"),
        "linalg.as_sl2.calls": c("linalg.as_sl2"),
        "representations.riley_family.calls":
            c("representations.riley_family"),
        "representations.riley_family.s": s("representations.riley_family"),
        "representations.branches_per_call":
            sum(sizes.get("representations.riley_family", [])) / riley_calls
            if riley_calls else 0.0,
        "representations.invariant_vector.s":
            s("representations.invariant_vector"),
        "representations.boundary_data.s": s("representations.boundary_data"),
        "linalg.orthonormal_row_basis.calls":
            c("linalg.orthonormal_row_basis"),
        "linalg.orthonormal_row_basis.s": s("linalg.orthonormal_row_basis"),
        "linalg.nullspace.calls": c("linalg.nullspace"),
        "linalg.nullspace.s": s("linalg.nullspace"),
        "apoly.log_gauss.calls": c("apoly.log_gauss"),
        "apoly.log_gauss.s": s("apoly.log_gauss"),
        "apoly.riley_polynomial.s": s("apoly.riley_polynomial"),
        "apoly.resultant_t.s": s("apoly.resultant_t"),
        "apoly.sylvester_dim": sum(r[0] for r in res) / rounds,
        "apoly.resultant_terms": sum(r[1] for r in res) / rounds,
        "apoly.coeff_bits_max": max((r[2] for r in res), default=0),
        "apoly.squarefree_part.s": s("apoly.squarefree_part"),
        # its gcd work runs in traced children, so self time misses it
        "apoly.squarefree_part.total_s":
            total_s.get("apoly.squarefree_part", 0.0) / rounds,
        "apoly.bilaurent_gcd.calls": c("apoly.bilaurent_gcd"),
        "apoly.newton_polygon.s": s("apoly.newton_polygon"),
        "cli.self_s": sum(cli_process_cpu[k] - cli_children_cpu.get(k, 0.0)
                          for k in cli_process_cpu) / rounds,
        "trace.spans": len([sp for sp in spans if sp[4] >= 0]) / rounds,
    }
    return out
