"""Spans around potl's public functions, kept in memory.

``Tracer.install`` rebinds each traced function in the module that calls
it (``potl.engine.best_removal``, ``potl.engine.prob_until``,
``potl.oracle.exact_prob``, ...) to a wrapper that records name, start,
end and parent span; ``uninstall`` puts the originals back. Nothing inside
``src/`` changes. Spans live in flat arrays and are written out once, when
the run ends.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import sys
import time
from array import array
from collections import Counter

import potl.cli
import potl.engine
import potl.model
import potl.oracle
import potl.syntax
from potl.oracle import count_strategies

OPS = {
    "prob_next": "next",
    "prob_bounded_until": "bounded_until",
    "prob_until": "until",
    "prob_bounded_release": "bounded_release",
    "prob_release": "release",
}
ORACLE = ("oracle_optimum", "step_optimum", "exact_prob", "oracle_sat")


def _argument(signature: inspect.Signature, args: tuple, kwargs: dict, name: str):
    position = list(signature.parameters).index(name)
    if position < len(args):
        return args[position]
    return signature.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = bytearray()  # 1 when a same-named span is open around it
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._open_names: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._unaffordable: dict = {}
        self._strategies: dict = {}

    # -- recording ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(ident)
        self.parent.append(self._open[-1] if self._open else -1)
        self.nested.append(1 if self._open_names[ident] else 0)
        self.end.append(0.0)
        self._open.append(index)
        self._open_names[ident] += 1
        self.start.append(time.perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()
        self._open_names[self.name[index]] -= 1

    def _wrap(self, module, attr: str, namer, after=None) -> None:
        original = getattr(module, attr)
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._begin(namer(signature, args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._finish(index)
            if after is not None:
                after(signature, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    # -- the traced layers ---------------------------------------------------------

    def install(self) -> None:
        def fixed(name):
            return lambda signature, args, kwargs: name

        def engine_op(op):
            def namer(signature, args, kwargs):
                return f"engine.{op}.{_argument(signature, args, kwargs, 'mode')}"

            return namer

        self._wrap(
            potl.engine, "best_removal", fixed("obstruction.best_removal"),
            self._after_best_removal,
        )
        for attr, op in OPS.items():
            self._wrap(potl.engine, attr, engine_op(op))
        for attr in ("check", "path_values", "synthesize", "prob_fixed"):
            self._wrap(potl.engine, attr, fixed(f"engine.{attr}"))
        for module in (potl.engine, potl.oracle):
            self._wrap(module, "prune", fixed("model.prune"))
        self._wrap(potl.model, "loads_model", fixed("model.loads_model"))
        for module in (potl.model, potl.cli):
            self._wrap(module, "validate", fixed("model.validate"))
        for module in (potl.syntax, potl.cli):
            self._wrap(module, "parse", fixed("syntax.parse"))
        for attr in ORACLE:
            after = self._after_oracle_optimum if attr == "oracle_optimum" else None
            self._wrap(potl.oracle, attr, fixed(f"oracle.{attr}"), after)
        self._wrap(potl.cli, "main", fixed("cli.main"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _after_best_removal(self, signature, args, kwargs, result) -> None:
        model, q, budget = (
            _argument(signature, args, kwargs, name) for name in ("model", "q", "budget")
        )
        key = (id(model), q, budget)
        if key not in self._unaffordable:
            costs = [model.cost_of(q, r) for r in model.succ(q)]
            # the model rides along so its id cannot be reused
            self._unaffordable[key] = (model, bool(costs) and min(costs) > budget)
        self.counts["best_removal.unaffordable"] += self._unaffordable[key][1]
        self.counts["best_removal.removing"] += bool(result[0])

    def _after_oracle_optimum(self, signature, args, kwargs, result) -> None:
        model, budget = (
            _argument(signature, args, kwargs, name) for name in ("model", "budget")
        )
        key = (id(model), budget)
        if key not in self._strategies:
            self._strategies[key] = (model, count_strategies(model, budget))
        self.counts["oracle.strategies"] += self._strategies[key][1]

    # -- output -----------------------------------------------------------------------

    def aggregate(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per suite round: calls, inclusive seconds of
        the outermost span of each name, and self seconds (span minus its
        direct children)."""
        children = array("d", bytes(8 * len(self.name)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, ident in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            calls[ident] += 1
            own[ident] += duration - children[i]
            if not self.nested[i]:
                total[ident] += duration
        out: dict[str, float] = {}
        for ident, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[ident] / rounds
            out[f"{name}.s"] = total[ident] / rounds
            out[f"{name}.self_s"] = own[ident] / rounds
        for name, count in self.counts.items():
            out[name] = count / rounds
        return out

    def write(self, path: pathlib.Path) -> None:
        """Spans as four little-endian columns in ``path`` with suffix
        ``.bin`` (name index int32, start and end float64 seconds, parent
        index int32, -1 for none) and a JSON header beside it."""
        columns = [self.name, self.start, self.end, self.parent]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in columns:
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "columns": ["name:int32", "start:float64", "end:float64", "parent:int32"],
            "data": path.with_suffix(".bin").name,
        }
        path.write_text(json.dumps(header, indent=2) + "\n")
