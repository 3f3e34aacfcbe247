"""Run one harmchoice CLI invocation with spans around its layers.

    python perfbench/traced_cli.py SPANS.json INVOCATION analyze --format json data.json

Behaves like ``python -m harmchoice.cli ...`` (same stdout, stderr and exit
code). Before calling ``harmchoice.cli.main`` it wraps the public functions
listed in TARGETS in every harmchoice module namespace that holds them, so
the package's source is untouched. Spans stay in memory and are written to
SPANS.json when the invocation ends, as ``[id, name, start, end, parent,
thread, data]`` rows under the INVOCATION id. A function of TARGETS missing
from the package, or a count that cannot be taken from a call, ends the
invocation with exit code 3, so a renamed function fails the traced pass
instead of reading 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time


def _input_bytes(args, result):
    path = args[0]
    return {"bytes": 0 if path == "-" else os.path.getsize(path)}


def _map_chunks(args, result):
    return {"chunks": len(args[1]), "workers": args[2]}


#: (defining module, function, span name, counts taken from (args, result))
TARGETS = [
    ("harmchoice.cli", "load_dataset", "cli.load", _input_bytes),
    ("harmchoice.core", "validate_choice", "core.validate", None),
    ("harmchoice.axioms", "coselected_pairs", "axioms.coselected", lambda a, r: {"pairs": len(r)}),
    ("harmchoice.axioms", "find_reversals", "axioms.reversals", lambda a, r: {"count": len(r)}),
    ("harmchoice.axioms", "check_cns", "axioms.check_cns", lambda a, r: {"hit": int(r is not None)}),
    ("harmchoice.degree", "sp_axiomatic", "degree.sp_axiomatic", None),
    (
        "harmchoice.degree",
        "sp_bruteforce",
        "degree.sp_bruteforce",
        lambda a, r: {"minimizing": r.minimizing_order_count},
    ),
    ("harmchoice._kernels", "order_scores", "kernels.order_scores", lambda a, r: {"orders": len(a[1])}),
    ("harmchoice._kernels", "decode_choices", "kernels.decode_choices", None),
    ("harmchoice._kernels", "pair_masks", "kernels.pair_masks", None),
    ("harmchoice._kernels", "count_inconsistent", "kernels.count_inconsistent", None),
    ("harmchoice.elicit", "elicit_partial", "elicit.partial", None),
    ("harmchoice.elicit", "elicit_weakly_harmful", "elicit.weakly_harmful", lambda a, r: {"orders": len(r)}),
    ("harmchoice.elicit", "all_extensions", "elicit.extensions", lambda a, r: {"orders": r.total}),
    ("harmchoice.census", "generate_harmful", "census.generate", None),
    ("harmchoice.census", "construct_inconsistent", "census.generate", None),
    ("harmchoice.census", "enumerate_census", "census.enumerate", lambda a, r: {"choices": r.total}),
    ("harmchoice.census", "sample_census", "census.sample", lambda a, r: {"choices": r.samples}),
    ("harmchoice._parallel", "map_chunks", "parallel.map_chunks", _map_chunks),
]


class Tracer:
    def __init__(self) -> None:
        self.records: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.errors: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name, measure=None, parent=None):
        """func, recording a span per call.

        The parent is ``parent`` when given, else the innermost open span of
        the calling thread. ``map_chunks`` spans also wrap the per-chunk
        function, so pool threads parent their work to the right span.
        """
        chunked = name == "parallel.map_chunks"

        def traced(*args, **kwargs):
            stack = self._stack()
            up = parent if parent is not None else (stack[-1] if stack else None)
            with self._lock:
                sid = next(self._ids)
            if chunked:
                args = (self.wrap(args[0], "parallel.chunk", parent=sid),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            data = {}
            if measure is not None:
                try:
                    data = measure(args, result)
                except Exception as exc:
                    self.errors.append(f"counting {name}: {type(exc).__name__}: {exc}")
            with self._lock:
                self.records.append([sid, name, start, end, up, threading.get_ident(), data])
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "harmchoice"]
        for mod_name, attr, name, measure in TARGETS:
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError) as exc:
                self.errors.append(f"cannot trace {mod_name}.{attr}: {exc}")
                continue
            wrapped = self.wrap(original, name, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def fail(self) -> None:
        print("traced_cli: " + "; ".join(self.errors), file=sys.stderr)
        sys.exit(3)

    def dump(self, path: str, invocation: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "spans": self.records}, fh)


def main() -> None:
    out_path, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import harmchoice.cli

    tracer = Tracer()
    tracer.install()
    if tracer.errors:
        tracer.fail()
    code = 1
    try:
        code = tracer.wrap(harmchoice.cli.main, "cli.main")(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, invocation)
    if tracer.errors:
        tracer.fail()
    sys.exit(code)


if __name__ == "__main__":
    main()
