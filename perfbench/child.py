"""One ctxkit process of the benchmark, optionally traced.

    python3 child.py META_PATH TRACE cli <ctxkit arguments>
    python3 child.py META_PATH TRACE marginal LABEL SHOTS SEED

``cli`` runs the ctxkit command line exactly as the ``ctxkit`` console
script does.  ``marginal`` makes the one library call the command line
does not expose: ``marginal_consistency`` on the 18-ray set in the
maximally mixed state, between contexts 1 and 2.

When the process ends it writes META_PATH as JSON: ``ready``, the
``time.monotonic()`` reading once ``ctxkit`` is imported (the parent
subtracts its own reading at spawn), and with TRACE = 1 ``functions``
and ``counters``.  Tracing wraps every public function of every
``ctxkit`` module and rebinds the wrapper in every module namespace that
binds the function (``substream`` is bound in runtime, simulate, states,
quantum and calibration, for example), so calls made through any import
site are seen.  Spans are aggregated in memory per function: calls,
inclusive seconds and self seconds (inclusive minus the time in wrapped
callees), plus caller -> callee call counts.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter


def _operator_bytes(obs) -> int:
    return sum(op.nbytes for op in obs.observables.values())


# Counters computed from a wrapped function's arguments and result:
# name -> (counter, function of (args, result) giving the increment).
_BYTES = "observables.operator_bytes"
_COUNTERS = {
    "observables.build_ks18": (_BYTES, lambda a, r: _operator_bytes(r[1])),
    "observables.build_peres_mermin": (_BYTES, lambda a, r: _operator_bytes(r)),
    "observables.build_mermin_star": (_BYTES, lambda a, r: _operator_bytes(r)),
    "solver.classical_bound": (
        "solver.assignments",
        lambda a, r: 2 ** len({f for t in a[0].terms for f in t.factors}),
    ),
}


class Tracer:
    """Per-function call counts and times, kept in memory until exit.

    One call stack for the process: the benchmark runs ctxkit with its
    default single worker thread.
    """

    def __init__(self) -> None:
        self.functions: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds spent in wrapped callees]

    def wrap(self, name: str, fn):
        stats = self.functions.setdefault(name, [0, 0.0, 0.0])
        counter = _COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
                self.edges[caller[0] if caller else "", name] += 1
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def to_json(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "s": s, "self_s": self_s}
                for name, (c, s, self_s) in sorted(self.functions.items())
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
        }


def _marginal(label: str, shots: str, seed: str) -> int:
    import ctxkit

    obs = ctxkit.build_set("ks18")
    rho = ctxkit.make_state("maximally_mixed", dim=obs.dim)
    # Contexts 1 and 2 of the 18-ray set share the ray A12.
    report = ctxkit.marginal_consistency(
        rho, obs, label, obs.contexts[:2], int(shots), int(seed)
    )
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def main() -> int:
    meta_path, trace, kind, *args = sys.argv[1:]
    import ctxkit
    import ctxkit.cli

    meta: dict = {"ready": time.monotonic()}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install(ctxkit)
    try:
        if kind == "cli":
            return ctxkit.cli.main(args)
        if kind == "marginal":
            return _marginal(*args)
        raise SystemExit(f"unknown command kind {kind!r}")
    finally:
        if tracer is not None:
            meta.update(tracer.to_json())
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main())
