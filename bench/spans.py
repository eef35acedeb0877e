"""Span tracing of ``dskit`` from outside the package.

``Tracer.install`` replaces every binding of a wrapped function in every
``dskit`` module namespace (``fuchsian.in_sigma_lambda`` as well as
``rootsys.in_sigma_lambda``) with one shared wrapper, so a call is recorded
once whichever name it went through.  Methods are wrapped on the class.
``Scalar.__init__`` is only counted: a span per scalar would cost more than
the work it measures.

Spans live in flat arrays (about 40 bytes each) and are written out by
``write_spans`` when the run ends.  Span ``i`` is opened before any of its
children, so ``parent[i] < i``.
"""

from __future__ import annotations

import array
import gzip
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable, Iterable

OUTER_NAME = 1  # no enclosing span of the same name
OUTER_LAYER = 2  # no enclosing span of the same layer (module)
RAISED = 4
RAISED_BUDGET = 8

MODULES = (
    "dskit", "dskit.cli", "dskit.jsonio", "dskit.core", "dskit.linalg",
    "dskit.laurent", "dskit.rootsys", "dskit.fuchsian", "dskit.unramified",
    "dskit.formal", "dskit.coxeter",
)
# private functions that a per-layer metric names
EXTRA_FUNCTIONS = {"dskit.unramified": ("_exists_on_data",)}
# (module, class, methods); None means every public method plus arithmetic
METHODS = (
    ("dskit.laurent", "LaurentMatrix", None),
    ("dskit.core", "OrbitSpec", ("is_nonresonant",)),
)
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__")
COUNTED = (("dskit.core", "Scalar", "__init__", "core.scalars_created"),)


def _value_of(name: str) -> Callable[[Any], int] | None:
    """What a span records about its result, for the yield ratios."""
    if name == "formal.is_fundamental":
        return lambda r: 1 if r else 0
    if name == "rootsys.positive_roots_leq":
        return len
    return None


class Tracer:
    def __init__(self, budget_error: type[BaseException] | None = None):
        self.budget_error = budget_error
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.layers: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("q")
        self.request = array.array("q")
        self.value = array.array("q")
        self.flags = bytearray()
        self.counters: dict[str, int] = defaultdict(int)
        self.current_request = -1
        self._stack = [-1]
        self._active_name: list[int] = []
        self._active_layer: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- span recording -------------------------------------------------------

    def name_id(self, qualname: str) -> int:
        layer = qualname.split(".", 1)[0]
        if layer not in self.layers:
            self.layers.append(layer)
            self._active_layer.append(0)
        self.names.append(qualname)
        self.layer_of.append(self.layers.index(layer))
        self._active_name.append(0)
        return len(self.names) - 1

    def _open(self, k: int) -> int:
        i = len(self.flags)
        lay = self.layer_of[k]
        flags = 0
        if not self._active_name[k]:
            flags |= OUTER_NAME
        if not self._active_layer[lay]:
            flags |= OUTER_LAYER
        self._active_name[k] += 1
        self._active_layer[lay] += 1
        self.name.append(k)
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.value.append(0)
        self.end.append(0.0)
        self.flags.append(flags)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, k: int, exc: BaseException | None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active_name[k] -= 1
        self._active_layer[self.layer_of[k]] -= 1
        if exc is not None:
            flag = RAISED
            if self.budget_error is not None and isinstance(exc, self.budget_error):
                flag |= RAISED_BUDGET
            self.flags[i] |= flag

    def wrap(self, fn: Callable, qualname: str) -> Callable:
        k = self.name_id(qualname)
        value_of = _value_of(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption; value 1 when it yielded an item
            def traced_gen(*args, **kwargs):
                tracer.counters[qualname + ".calls"] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        i = tracer._open(k)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._close(i, k, None)
                            return
                        except BaseException as exc:
                            tracer._close(i, k, exc)
                            raise
                        tracer._close(i, k, None)
                        tracer.value[i] = 1
                        yield item
                finally:
                    inner.close()

            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                i = tracer._open(k)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._close(i, k, exc)
                    raise
                tracer._close(i, k, None)
                if value_of is not None:
                    tracer.value[i] = value_of(result)
                return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, counter: str) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install_modules(
        self,
        modules: Iterable[ModuleType],
        extra: dict[str, tuple[str, ...]] | None = None,
        methods: Iterable[tuple[str, str, tuple[str, ...] | None]] = (),
        counted: Iterable[tuple[str, str, str, str]] = (),
    ) -> None:
        """Wrap the public functions defined in `modules` at every binding
        among them, plus the listed methods and counters."""
        modules = list(modules)
        by_name = {m.__name__: m for m in modules}
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            wanted = set((extra or {}).get(mod.__name__, ()))
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in wanted:
                    continue
                short = mod.__name__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = self.wrap(obj, f"{short}.{obj.__qualname__}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        for modname, clsname, names in methods:
            cls = getattr(by_name[modname], clsname)
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj):
                    continue
                if names is None:
                    if attr.startswith("_") and attr not in ARITHMETIC:
                        continue
                elif attr not in names:
                    continue
                self._set(cls, attr, self.wrap(obj, f"{short}.{clsname}.{attr}"))
        for modname, clsname, attr, counter in counted:
            cls = getattr(by_name[modname], clsname)
            self._set(cls, attr, self.count(cls.__dict__[attr], counter))

    def install_dskit(self) -> None:
        mods = [sys.modules[name] for name in MODULES]
        self.install_modules(mods, EXTRA_FUNCTIONS, METHODS, COUNTED)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\tflags\tvalue\n")
            for i in range(len(self.flags)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.flags[i]}\t{self.value[i]}\n"
                )


class Summary:
    """Per-name and per-layer totals over all recorded spans.

    busy: wall time inside at least one span of the name (layer), i.e. the
    durations of the outermost such spans.  self: span duration minus the
    time covered by its child spans.  value: sum of the recorded results.
    budget_origins: spans that raised the budget error where none of their
    children did, i.e. where the error was raised first.
    """

    def __init__(self, tr: Tracer):
        n = len(tr.flags)
        dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0.0] * n
        child_budget = bytearray(n)
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if tr.flags[i] & RAISED_BUDGET:
                    child_budget[p] = 1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.value: dict[str, int] = defaultdict(int)
        self.budget_origins: dict[str, int] = defaultdict(int)
        # children of positive_roots_leq spans, for the root yield
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        for i in range(n):
            k = tr.name[i]
            name = tr.names[k]
            layer = tr.layers[tr.layer_of[k]]
            f = tr.flags[i]
            own = dur[i] - child[i]
            self.calls[name] += 1
            self.calls[layer] += 1
            self.self_s[name] += own
            self.self_s[layer] += own
            self.value[name] += tr.value[i]
            if f & OUTER_NAME:
                self.busy[name] += dur[i]
            if f & OUTER_LAYER:
                self.busy[layer] += dur[i]
            if f & RAISED_BUDGET and not child_budget[i]:
                self.budget_origins[layer] += 1
            p = tr.parent[i]
            if p >= 0:
                self.calls_under[(tr.names[tr.name[p]], name)] += 1
        self.root_busy = sum(dur[i] for i in range(n) if tr.parent[i] < 0)
        self.total_self = sum(dur[i] - child[i] for i in range(n))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, function of (Summary, Tracer counters))
LAYER_METRICS: dict[str, tuple[str, Callable[[Summary, dict], float]]] = {
    "cli.self_s": ("s", lambda s, c: s.self_s["cli"]),
    "jsonio.calls": ("count", lambda s, c: s.calls["jsonio"]),
    "jsonio.busy_s": ("s", lambda s, c: s.busy["jsonio"]),
    "fuchsian.build_cb_data.busy_s": ("s", lambda s, c: s.busy["fuchsian.build_cb_data"]),
    "fuchsian.rigidity.busy_s": ("s", lambda s, c: s.busy["fuchsian.fuchsian_rigidity"]),
    "rootsys.in_sigma_lambda.busy_s": ("s", lambda s, c: s.busy["rootsys.in_sigma_lambda"]),
    "rootsys.positive_roots_leq.busy_s": ("s", lambda s, c: s.busy["rootsys.positive_roots_leq"]),
    "rootsys.classify_root.calls": ("count", lambda s, c: s.calls["rootsys.classify_root"]),
    "rootsys.classify_root.busy_s": ("s", lambda s, c: s.busy["rootsys.classify_root"]),
    "rootsys.root_yield": ("ratio", lambda s, c: _ratio(
        s.value["rootsys.positive_roots_leq"],
        s.calls_under[("rootsys.positive_roots_leq", "rootsys.classify_root")])),
    "rootsys.decompositions.yielded": ("count", lambda s, c: s.value["rootsys.decompositions"]),
    "rootsys.decompositions.busy_s": ("s", lambda s, c: s.busy["rootsys.decompositions"]),
    "rootsys.budget_errors": ("count", lambda s, c: s.budget_origins["rootsys"]),
    "unramified.build_hiroe_data.busy_s": ("s", lambda s, c: s.busy["unramified.build_hiroe_data"]),
    "unramified.exists_on_data.calls": ("count", lambda s, c: s.calls["unramified._exists_on_data"]),
    "unramified.exists_on_data.busy_s": ("s", lambda s, c: s.busy["unramified._exists_on_data"]),
    "unramified.exists_on_data.self_s": ("s", lambda s, c: s.self_s["unramified._exists_on_data"]),
    "formal.certify_slope.busy_s": ("s", lambda s, c: s.busy["formal.certify_slope"]),
    "formal.parahorics_scanned": ("count", lambda s, c: s.calls["formal.leading_stratum"]),
    "formal.nilpotency_tests": ("count", lambda s, c: s.calls["formal.is_fundamental"]),
    "formal.fundamental_yield": ("ratio", lambda s, c: _ratio(
        s.value["formal.is_fundamental"], s.calls["formal.is_fundamental"])),
    "formal.is_fundamental.busy_s": ("s", lambda s, c: s.busy["formal.is_fundamental"]),
    "formal.regsing_normalize.busy_s": ("s", lambda s, c: s.busy["formal.regsing_normalize"]),
    "formal.regsing_normalize.self_s": ("s", lambda s, c: s.self_s["formal.regsing_normalize"]),
    "laurent.mul.calls": ("count", lambda s, c: s.calls["laurent.LaurentMatrix.__mul__"]),
    "laurent.mul.busy_s": ("s", lambda s, c: s.busy["laurent.LaurentMatrix.__mul__"]),
    "laurent.power.busy_s": ("s", lambda s, c: s.busy["laurent.LaurentMatrix.power"]),
    "linalg.mat_mul.calls": ("count", lambda s, c: s.calls["linalg.mat_mul"]),
    "linalg.mat_mul.busy_s": ("s", lambda s, c: s.busy["linalg.mat_mul"]),
    "linalg.sylvester_solve.calls": ("count", lambda s, c: s.calls["linalg.sylvester_solve"]),
    "linalg.sylvester_solve.busy_s": ("s", lambda s, c: s.busy["linalg.sylvester_solve"]),
    "linalg.solve.busy_s": ("s", lambda s, c: s.busy["linalg.solve"]),
    "core.scalars_created": ("count", lambda s, c: c.get("core.scalars_created", 0)),
    "core.is_nonresonant.calls": ("count", lambda s, c: s.calls["core.OrbitSpec.is_nonresonant"]),
    "coxeter.busy_s": ("s", lambda s, c: s.busy["coxeter"]),
}
