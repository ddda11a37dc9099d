"""Spans around the public functions of each strongpfd layer, installed from
outside the package.

Each listed function is replaced, on every strongpfd module attribute bound
to it (matched by identity), by a wrapper that records a span: layer name,
start, end, parent span and op id.  That also catches cross-module
``from .x import f`` bindings and imports done at call time.  Spans are kept
in flat arrays and turned into per-layer numbers when the run ends; a
layer's self time is its span's duration minus the time its child spans
cover.  Counts are read from arguments and return values only.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

_MARK = "__perfbench_span__"


# Count hooks run after the call, also when it raised (then result is None).


def _add_result(tracer, index, args, kwargs, result):
    tracer.values[index] += result or 0


def _targets(tracer, index, args, kwargs, result):
    targets = kwargs.get("targets", args[5] if len(args) > 5 else None)
    if targets is None:
        targets = result or ()
    tracer.values[index] += len(targets)


def _exact_input(tracer, index, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    tracer.values[index] = max(tracer.values[index], graph.vertex_count)
    tracer.exact_inputs.append(graph)


#: (module, attribute path, metric prefix, stats reported, count hook).
#: Graph.adjacent and Graph.neighbors are too hot to wrap; their cost shows in
#: the callers' self time.
LAYERS = (
    ("graph", "Graph.induced_subgraph", "graph.induced_subgraph", ("calls", "self_s"), None),
    ("io", "loads_edgelist", "io.loads_edgelist", ("self_s",), None),
    ("products", "strong_product", "products.strong_product", ("self_s",), None),
    ("products", "cartesian_index", "products.cartesian_index", ("calls", "self_s"), None),
    ("sclasses", "is_thin", "sclasses.is_thin", ("calls", "self_s"), None),
    ("sclasses", "backbone", "sclasses.backbone", ("calls", "self_s"), None),
    ("sclasses", "quotient", "sclasses.quotient", ("calls", "self_s"), None),
    ("isomorphism", "canonical_form", "isomorphism.canonical_form", ("calls", "self_s"), None),
    ("factorize", "factor_neighborhood", "factorize.factor_neighborhood", ("calls", "self_s"), None),
    ("factorize", "factor_exact", "factorize.factor_exact",
     ("calls", "self_s", "max_vertices", "raised"), _exact_input),
    ("factorize", "reconstructs", "factorize.reconstructs", ("calls", "self_s"), None),
    ("coloring", "NeighborhoodCache.get", "coloring.NeighborhoodCache.get", ("calls",), None),
    ("coloring", "color_fibers_from", "coloring.color_fibers_from", ("calls", "self_s", "raised"), None),
    ("coloring", "completion_sweep", "coloring.completion_sweep",
     ("calls", "self_s", "edges_added"), _add_result),
    ("skeleton", "build_skeleton", "skeleton.build_skeleton", ("self_s", "raised"), None),
    ("skeleton", "merge_parallel_colors", "skeleton.merge_parallel_colors",
     ("calls", "self_s", "unions"), _add_result),
    ("skeleton", "n2_sweep", "skeleton.n2_sweep", ("calls", "self_s", "targets"), _targets),
    ("recognize", "product_coordinates", "recognize.product_coordinates", ("calls", "self_s"), None),
    ("recognize", "recognize", "recognize.recognize", ("self_s",), None),
    ("recognize", "pfd_fast", "recognize.pfd_fast", ("self_s",), None),
)

#: Layers that only run while inputs are generated and parsed; their numbers
#: come from the set-up phase, every other layer's from the timed ops.
SETUP_LAYERS = frozenset({"io.loads_edgelist", "products.strong_product"})

SETUP_OP = -1


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "strongpfd" or name.startswith("strongpfd.")]


def leftover_wrappers() -> list[str]:
    """Names of strongpfd attributes, on modules or their classes, that still
    hold a wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{attr}.{name}"
                    for name, member in vars(value).items()
                    if getattr(member, _MARK, False)
                )
    return found


class Tracer:
    """Installs the wrappers, records spans while active, derives the numbers."""

    def __init__(self) -> None:
        self.names = [layer[2] for layer in LAYERS]
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.raised: Counter = Counter()
        self.values: Counter = Counter()
        self.exact_inputs: list = []
        self.exact_repeats: dict[int, int] = {}
        self.op_id = SETUP_OP
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for index, (module, path, _, _, hook) in enumerate(LAYERS):
            owner = sys.modules[f"strongpfd.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(index, original, hook)
            if classes:
                sites = [(owner, attr)]
            else:
                sites = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            for site, name in sites:
                self._patched.append((site, name, original))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    def _wrap(self, index: int, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(tracer.span_start)
            tracer.span_name.append(index)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            tracer.span_start.append(0.0)
            stack.append(span)
            result = None
            tracer.span_start[span] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[index] += tracer.op_id != SETUP_OP
                raise
            finally:
                tracer.span_end[span] = perf_counter()
                stack.pop()
                if hook is not None and tracer.op_id != SETUP_OP:
                    hook(tracer, index, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op bookkeeping --------------------------------------------------------

    def end_op(self) -> None:
        """Count factor_exact inputs labelled-equal to an earlier input of the
        same op; runs after the op, outside every span."""
        seen = set()
        repeats = 0
        for graph in self.exact_inputs:
            key = (graph.vertex_count, tuple(graph.edges()))
            repeats += key in seen
            seen.add(key)
        self.exact_repeats[self.op_id] = repeats
        self.exact_inputs.clear()

    # -- results -------------------------------------------------------------------

    def _self_times(self) -> list[float]:
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        return [self.span_end[i] - self.span_start[i] - child[i] for i in range(n)]

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.span_start)
        own = self._self_times()
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        index = {name: i for i, name in enumerate(self.names)}
        get, fn, build, n2 = (
            index["coloring.NeighborhoodCache.get"],
            index["factorize.factor_neighborhood"],
            index["skeleton.build_skeleton"],
            index["skeleton.n2_sweep"],
        )
        misses = 0
        n2_parents = set()
        for i in range(n):
            layer = self.span_name[i]
            from_setup = self.span_op[i] == SETUP_OP
            if from_setup != (self.names[layer] in SETUP_LAYERS):
                continue
            calls[layer] += 1
            self_s[layer] += own[i]
            parent = self.span_parent[i]
            if layer == fn and parent >= 0 and self.span_name[parent] == get:
                misses += 1
            if layer == n2:
                n2_parents.add(parent)
        out: dict[str, float] = {}
        for layer, (_, _, name, stats, hook) in enumerate(LAYERS):
            for stat in stats:
                if stat == "calls":
                    out[f"{name}.calls"] = calls[layer]
                elif stat == "self_s":
                    out[f"{name}.self_s"] = self_s[layer]
                elif stat == "raised":
                    out[f"{name}.raised"] = self.raised[layer]
                else:
                    out[f"{name}.{stat}"] = self.values[layer]
        exact = index["factorize.factor_exact"]
        out["factorize.factor_exact.repeat_ratio"] = _ratio(
            sum(self.exact_repeats.values()), calls[exact]
        )
        out["coloring.NeighborhoodCache.hit_ratio"] = _ratio(calls[get] - misses, calls[get])
        out["skeleton.n2_ran_ratio"] = _ratio(len(n2_parents), calls[build])
        return out

    def split(self, kinds: list[str]) -> dict:
        """Per entry point, over the ops whose ids index ``kinds``: op count
        and time, each layer's self and inclusive time (spans nested in the
        same layer counted once), and the factor_exact calls and repeats."""
        own = self._self_times()
        out: dict = {}
        for kind in set(kinds):
            out[kind] = {"ops": kinds.count(kind), "op_s": 0.0, "self_s": {}, "inclusive_s": {},
                         "exact_calls": 0, "exact_repeats": 0}
        exact = self.names.index("factorize.factor_exact")
        for i in range(len(self.span_start)):
            op = self.span_op[i]
            if op == SETUP_OP:
                continue
            entry = out[kinds[op]]
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            entry["self_s"][name] = entry["self_s"].get(name, 0.0) + own[i]
            if not self._nested_in_same_layer(i):
                entry["inclusive_s"][name] = entry["inclusive_s"].get(name, 0.0) + duration
            if self.span_parent[i] < 0:
                entry["op_s"] += duration
            entry["exact_calls"] += self.span_name[i] == exact
        for op, repeats in self.exact_repeats.items():
            out[kinds[op]]["exact_repeats"] += repeats
        return out

    def _nested_in_same_layer(self, span: int) -> bool:
        """Whether an ancestor span belongs to the same layer, as in
        factor_exact factoring a subgraph through factor_exact again."""
        layer = self.span_name[span]
        parent = self.span_parent[span]
        while parent >= 0:
            if self.span_name[parent] == layer:
                return True
            parent = self.span_parent[parent]
        return False

    def write_spans(self, path: Path) -> None:
        """Dump every span: one JSON header line naming the layers and the
        columns, then each column as a raw native-endian array."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }
        header = {
            "layers": self.names,
            "count": len(self.span_start),
            "columns": [[name, col.typecode] for name, col in columns.items()],
        }
        with path.open("wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col in columns.values():
                col.tofile(out)


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat == "self_s":
        return "s"
    return "ratio" if "ratio" in metric else "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
