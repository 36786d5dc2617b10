"""Run CLI jobs in one process, optionally with spans around every layer call.

    python3 bench/tracer.py SPEC.json OUT.json

SPEC holds {"src": <dir holding the shadowsum package>, "traced": bool,
"jobs": [argv, ...], "circleop": bool}.  The jobs run one after another
through `shadowsum.cli.main` with stdout captured.  When traced, every
public function of each layer module is wrapped wherever the package binds
it (so `shadowsum.cli.build_fusion_table` and `shadowsum.fusion.
weight_multiplicities` both record), and a span [layer, name, parent,
start, end] is kept in memory for each call.  Counters are taken from
return values and arguments, never from the program's own state.  A name
that does not exist is simply not wrapped.  OUT receives the spans, the
counters and each job's output.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

LAYERS = ("roots", "reps", "fusion", "diagrams", "determinants", "regularize",
          "circleop", "holonomy")


class Trace:
    """Spans [layer, name, parent index, start, end] and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._weight_systems: dict[int, object] = {}  # keeps seen results alive

    def add(self, key: str, v: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + v

    def open(self, layer: str, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [layer, name, parent, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        self.stack.pop()
        span[4] = time.perf_counter()

    def count(self, layer: str, name: str, args, kwargs, result, parent: int) -> None:
        """Per-layer counters from one call's arguments and return value."""
        outermost = parent < 0 or self.spans[parent][0] != layer
        if layer == "reps":
            if name == "level_alphabet":
                self.add("reps.alphabet_size", len(result.elements))
            elif name == "weight_multiplicities":
                self.add("reps.mult_calls", 1)
                if id(result) in self._weight_systems:
                    self.add("reps.mult_hits", 1)
                else:
                    self._weight_systems[id(result)] = result
                    self.add("reps.weights", len(result.multiplicities))
        elif layer == "fusion" and outermost:
            coeffs = getattr(result, "coefficients", None)
            if isinstance(coeffs, dict):
                self.add("fusion.triples", len(coeffs))
                self.add("fusion.nonzero", sum(1 for v in coeffs.values() if v))
            elif getattr(result, "dtype", None) is not None and result.dtype.kind in "iu":
                self.add("fusion.triples", result.size)
                self.add("fusion.nonzero", int((result != 0).sum()))
        elif layer == "diagrams":
            if name == "build_diagram":
                self.add("diagrams.faces", len(result.faces))
            if outermost and hasattr(result, "colorings_total"):
                self.add("diagrams.colorings_total", result.colorings_total)
                self.add("diagrams.colorings_retained", result.colorings_retained)
        elif layer == "determinants":
            nodes = getattr(result, "nodes", None)
            if nodes is not None:
                self.add("determinants.quad_nodes", nodes.shape[0])
        elif layer == "regularize":
            if name == "total_cells":
                self.add("regularize.cells", result)
        elif layer == "holonomy":
            if name in ("holonomy", "ribbon_holonomy"):
                self.add("holonomy.factors", kwargs.get("n", args[2] if len(args) > 2 else 0))
            shape = getattr(result, "shape", None)
            if shape and len(shape) == 2:
                self.counters["holonomy.matrix_dim"] = max(
                    self.counters.get("holonomy.matrix_dim", 0), shape[0])
        elif layer == "circleop":
            if getattr(result, "dtype", None) is not None:
                self.add("circleop.coeffs", result.size)

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self.count(layer, name, args, kwargs, result, span[2])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions in every module that binds them."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"shadowsum.{layer}")
            except ImportError:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "shadowsum" or modname.startswith("shadowsum."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])
        qwg = getattr(sys.modules.get("shadowsum.fusion"), "QuantumWeylGroup", None)
        fold = getattr(qwg, "fold", None)
        if fold is not None:
            @functools.wraps(fold)
            def counted_fold(*args, **kwargs):
                self.add("fusion.folds", 1)
                return fold(*args, **kwargs)

            qwg.fold = counted_fold


def _output_of(argv: list[str], captured: str) -> str:
    if "--output" in argv:
        return Path(argv[argv.index("--output") + 1]).read_text()
    return captured


def run_cli(argv: list[str], cli, trace: Trace | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    span = trace.open("cli", "main") if trace else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        t1 = time.perf_counter()
    if span:
        trace.close(span)
        span[3:] = [t0, t1]
    text = _output_of(argv, out.getvalue()) if rc == 0 else ""
    return {"argv": argv, "rc": rc, "main_s": t1 - t0, "bytes": len(text.encode()),
            "output": text, "stderr": err.getvalue()[-2000:]}


def run_circleop(generic_b) -> dict:
    """Inverse then forward apply of d/dt + ad(b) on random truncated series."""
    import numpy as np
    from shadowsum import circleop, roots

    t0 = time.perf_counter()
    worst = 0.0
    for group, seed in (("A2", 1), ("E6", 2), ("E8", 3)):
        rs = roots.build_root_system(group)
        b = tuple(generic_b(seed, rs.ambient_dim))
        data = circleop.CircleOperatorData(rs=rs, b=b, order=6)
        c = circleop.random_admissible_series(data, np.random.default_rng(seed))
        back = circleop.apply_operator(data, circleop.circle_inverse_apply(data, c))
        worst = max(worst, float(np.max(np.abs(back - c)) / np.max(np.abs(c))))
    return {"argv": ["<circleop>"], "rc": 0 if worst <= 1e-9 else 1,
            "main_s": time.perf_counter() - t0, "bytes": 0, "output": "",
            "stderr": f"relative residual {worst:.3g}"}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import shadowsum.cli as cli
    from workloads import generic_b

    trace = Trace() if spec["traced"] else None
    if trace:
        trace.install()
    results = [run_cli(argv, cli, trace) for argv in spec["jobs"]]
    if spec.get("circleop"):
        results.append(run_circleop(generic_b))
    Path(sys.argv[2]).write_text(json.dumps({
        "results": results,
        "spans": trace.spans if trace else [],
        "counters": trace.counters if trace else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
