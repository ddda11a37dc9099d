"""Every function the benchmark's span tracer wraps still binds on the package.

``perfbench/spans.py`` lists, in ``LAYERS``, each traced function as a
strongpfd module and an attribute path on it, and its tracer installs a
wrapper where ``vars`` of the module or class holds that name.  A refactor
that renames or moves one of them would break ``perfbench/run.py --trace 1``
without any test noticing, so the list is checked here.  The benchmark's own
self-test of the tracer runs here too: it installs the wrappers, checks the
bound sites are wrapped, runs one case traced and untraced, and checks every
wrapper is removed.  Both files are loaded read-only from their paths.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_layers() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_binds_on_the_package():
    layers = load_layers()
    unbound = []
    for module, path, *_ in layers:
        owner = importlib.import_module(f"strongpfd.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(vars(owner).get(attr)):
            unbound.append(f"{module}.{path}")
    assert unbound == []
    named = {f"{module}.{path}" for module, path, *_ in layers}
    assert {
        "factorize.factor_neighborhood",
        "coloring.NeighborhoodCache.get",
        "coloring.completion_sweep",
        "skeleton.n2_sweep",
    } <= named


def test_the_benchmark_tracer_self_test_passes():
    # selftest.py imports its sibling modules by name, and run.py puts the
    # package sources first on the path; both are undone afterwards
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.test_wrappers_cover_bindings_and_are_removed()
    finally:
        sys.path[:] = saved
