"""Package imports stay at module level, only the public exact factorizer
orders its factors and only its ordering helper builds a result, the edge
coloring has one state, of colors and a union-find alone, and one
continuation check, neighborhood quotients are factored only through
``NeighborhoodCache``, which alone holds the size cap and the quotient memo,
only the public entry points open one from scratch, and the exact
factorizer recurses only where its depth stays small, the isomorphism
searches not at all.

An import inside a function body is how a module reaches back into one that
imports it; keeping every relative import at the top of its module keeps
the dependency order between the modules acyclic and visible.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import strongpfd
from strongpfd.coloring import PartialProductColoring, completion_sweep

PACKAGE = Path(strongpfd.__file__).resolve().parent


def function_level_imports(source: str) -> list[tuple[int, str]]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    found.add((inner.lineno, "." * inner.level + (inner.module or "")))
    return sorted(found)


def test_no_relative_import_inside_a_function():
    offenders = {
        path.name: imports
        for path in sorted(PACKAGE.glob("*.py"))
        if (imports := function_level_imports(path.read_text()))
    }
    assert offenders == {}


def test_the_check_sees_a_nested_import():
    source = "def f():\n    def g():\n        from .recognize import recognize\n"
    assert function_level_imports(source) == [(3, ".recognize")]


def functions_referencing(source: str, name: str) -> list[str]:
    """Top-level statements other than imports that mention ``name``, by
    the name they define (functions and classes) or by their node type."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(inner, ast.Name) and inner.id == name for inner in ast.walk(node)):
            found.append(getattr(node, "name", type(node).__name__))
    return found


def test_only_factor_exact_orders_factors():
    # internal factorizations stay in split-search order; the canonical
    # order costs a canonical labelling per tied factor and only the public
    # results promise it, through the one ordering helper the oracle shares
    source = (PACKAGE / "factorize.py").read_text()
    assert functions_referencing(source, "canonical_form") == ["ordered_factorization"]
    assert top_level_callers(source, "ordered_factorization") == ["factor_exact"]


def test_pfd_fast_orders_factors_through_the_shared_helper():
    source = (PACKAGE / "recognize.py").read_text()
    assert functions_referencing(source, "canonical_form") == []
    assert top_level_callers(source, "ordered_factorization") == ["pfd_fast"]


def test_the_check_sees_a_nested_reference():
    source = (
        "from .isomorphism import canonical_form\n"
        "def f():\n    def g():\n        return sorted(x, key=canonical_form)\n"
        "class C:\n    def m(self):\n        return canonical_form(self)\n"
        "order = canonical_form\n"
    )
    assert functions_referencing(source, "canonical_form") == ["f", "C", "Assign"]


def functions_with_constant(source: str, text: str) -> list[str]:
    """Innermost functions whose string constants (f-string parts included)
    contain ``text``."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_one_continuation_check():
    # pfd_fast's walker and build_skeleton's stitching must agree on when a
    # color continues into a neighborhood, so the check and its messages live
    # in one function
    for message in ("local factors, anchor", "no color continuation into"):
        owners = {
            (name, owner)
            for name, source in package_sources().items()
            for owner in functions_with_constant(source, message)
        }
        assert owners == {("coloring.py", "color_continuation")}, message


def test_the_check_sees_a_message_in_an_f_string():
    source = (
        "def f(v):\n    raise E(f'no color continuation into {v}')\n"
        "def g(v):\n    def h():\n        return 'x has 2 local factors, ' f'anchor {v}'\n"
    )
    assert functions_with_constant(source, "no color continuation into") == ["f"]
    assert functions_with_constant(source, "local factors, anchor") == ["h"]


def test_the_coloring_state_keeps_no_stage():
    # an edge's stage is read off the order in which it was colored, so the
    # state stores none and the sweep takes no stage to write; the raw
    # colors' union-find is the state's own parent list
    assert [f.name for f in dataclasses.fields(PartialProductColoring)] == ["colors", "parent"]
    assert list(inspect.signature(completion_sweep).parameters) == ["graph", "coloring"]


def parameters_named(source: str, *names: str) -> list[str]:
    """Functions with a parameter called each of ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if {arg.arg for arg in every if arg is not None}.issuperset(names):
                found.append(getattr(node, "name", "lambda"))
    return found


def test_no_backbone_vertices_parameter():
    # the backbone is memoized on the Graph, so no caller passes it in
    offenders = {
        name: owners
        for name, source in package_sources().items()
        if (owners := parameters_named(source, "backbone_vertices"))
    }
    assert offenders == {}


def test_the_check_sees_every_kind_of_parameter():
    source = (
        "def f(g, backbone_vertices=None):\n    pass\n"
        "class C:\n    def m(self, *, backbone_vertices):\n        pass\n"
        "h = lambda backbone_vertices: 0\n"
        "def k(g, backbone=None):\n    pass\n"
    )
    assert parameters_named(source, "backbone_vertices") == ["f", "m", "lambda"]


def test_no_function_takes_a_size_cap_and_a_cache():
    # the cache brings its own size cap, so a second one could disagree
    offenders = {
        name: owners
        for name, source in package_sources().items()
        if (owners := parameters_named(source, "size_cap", "cache"))
    }
    assert offenders == {}


def test_the_check_sees_a_size_cap_beside_a_cache():
    source = (
        "def f(g, size_cap=None, cache=None):\n    pass\n"
        "def g(cache, *, size_cap):\n    pass\n"
        "def h(cache, anchor):\n    pass\n"
        "def k(g, size_cap=None):\n    pass\n"
    )
    assert parameters_named(source, "size_cap", "cache") == ["f", "g"]


def test_no_memo_parameter():
    # the quotient memo belongs to NeighborhoodCache and is never handed around
    offenders = {
        name: owners
        for name, source in package_sources().items()
        if (owners := parameters_named(source, "memo"))
    }
    assert offenders == {}


def test_the_check_sees_a_memo_parameter():
    source = "class C:\n    def m(self, masks, memo=None):\n        pass\n"
    assert parameters_named(source, "memo") == ["m"]


def top_level_callers(source: str, name: str) -> list[str]:
    """Top-level functions and classes that call ``name``, as a bare name or
    as an attribute."""
    found = []
    for node in ast.parse(source).body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and name in (
                getattr(inner.func, "id", None),
                getattr(inner.func, "attr", None),
            ):
                found.append(getattr(node, "name", type(node).__name__))
                break
    return found


def test_only_the_neighborhood_cache_builds_quotients():
    # every region's quotient is read, capped, memoized and factored in one
    # place; the whole-graph quotient is the only other reader of the
    # relative classes, and the only builder of a QuotientResult; the class
    # loop is one routine, which the quotient route of the exact factorizer
    # calls on closed masks
    cache = ("factorize.py", "NeighborhoodCache")
    expected = {
        "relative_quotient": {cache, ("sclasses.py", "quotient")},
        "classes_of": {
            ("sclasses.py", "relative_quotient"),
            ("factorize.py", "_factor_through_quotient"),
        },
        "QuotientResult": {("sclasses.py", "quotient")},
    }
    for target, owners in expected.items():
        found = {
            (name, owner)
            for name, source in package_sources().items()
            for owner in top_level_callers(source, target)
        }
        assert found == owners, target


def test_the_exact_factorizer_builds_graphs_only_for_route_2_and_its_result():
    # a memo miss, a split and a graph that is not thin are factored on
    # closed masks: inside the exact factorizer only route 2 builds a graph,
    # for its ball cache and backbone, and the door builds the public
    # factors; no strong product is built, the blow-ups are written as masks
    source = (PACKAGE / "factorize.py").read_text()
    assert top_level_callers(source, "from_closed_masks") == ["factor_exact", "_split_grown"]
    assert top_level_callers(source, "Graph") == []
    assert top_level_callers(source, "strong_product") == []


def test_only_the_ordering_helper_builds_a_result():
    # a memo miss reads the plain factors and rows of the verified core, so
    # the public result types are built once per public call, by the one
    # helper that orders them; products builds its own coordinatizations
    for target in ("LocalFactorization", "Coordinatization"):
        found = {
            (name, owner)
            for name, source in package_sources().items()
            if name != "products.py"
            for owner in top_level_callers(source, target)
        }
        assert found == {("factorize.py", "ordered_factorization")}, target
    # the verified core checks plain rows; the wrapper check is for callers
    callers = [top_level_callers(source, "reconstructs") for source in package_sources().values()]
    assert not any(callers)


def test_the_check_sees_calls_in_methods_and_through_modules():
    source = (
        "from . import graph\n"
        "from .graph import from_closed_masks\n"
        "class C:\n    def m(self, masks):\n        return from_closed_masks(masks)\n"
        "def f(g, members):\n    def inner():\n        return graph.Graph.from_closed_masks(g)\n"
        "def h(build=from_closed_masks):\n    return build\n"
        "table = {1: from_closed_masks((1,))}\n"
    )
    assert top_level_callers(source, "from_closed_masks") == ["C", "f", "Assign"]


def cache_constructions(source: str) -> list[tuple[str, bool]]:
    """Each call of ``NeighborhoodCache``, by its innermost enclosing
    function or class, with whether it passes a ``quotients`` memo."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "NeighborhoodCache" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            found.append((owner, any(kw.arg == "quotients" for kw in node.keywords)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_only_public_calls_open_a_cache_from_scratch():
    # one quotient memo serves a whole public call: the entry points and
    # the CLI open the root cache, and every split search below opens its
    # own through the enclosing cache's ``on``, which shares the memo
    fresh, shared = set(), set()
    for name, source in package_sources().items():
        for owner, passes_memo in cache_constructions(source):
            (shared if passes_memo else fresh).add((name, owner))
    assert {entry for entry in fresh if entry[0] != "cli.py"} == {
        ("recognize.py", "recognize"),
        ("recognize.py", "pfd_fast"),
        ("factorize.py", "factor_exact"),
    }
    assert shared == {("factorize.py", "on")}
    source = (PACKAGE / "factorize.py").read_text()
    assert top_level_callers(source, "on") == ["_split_grown"]


def test_the_check_sees_every_cache_construction():
    source = (
        "from . import factorize\n"
        "def f(g):\n    return NeighborhoodCache(g, 4)\n"
        "class C:\n    def on(self, g):\n        return NeighborhoodCache(g, quotients=self.q)\n"
        "def h(g):\n    return [factorize.NeighborhoodCache(g) for _ in g]\n"
        "root = NeighborhoodCache(None)\n"
    )
    assert cache_constructions(source) == [("f", False), ("on", True), ("h", False), (None, False)]


def self_calling_functions(source: str) -> list[str]:
    """Functions, by dotted name inside their enclosing functions and
    classes, whose body calls their own bare name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == child.name
                    for inner in ast.walk(child)
                ):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_factorize_recurses_only_where_depth_stays_small():
    # _pfd recurses once per split, so its depth is the number of prime
    # factors; every search whose depth grows with the graph keeps an
    # explicit stack
    source = (PACKAGE / "factorize.py").read_text()
    assert self_calling_functions(source) == ["_pfd"]


def test_isomorphism_recurses_only_in_the_canonical_search():
    # find_isomorphism keeps an explicit stack, one level per vertex, and
    # so does the individualization search of canonical_form
    source = (PACKAGE / "isomorphism.py").read_text()
    assert self_calling_functions(source) == []


def test_the_check_sees_nested_recursion():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g(xs):\n    def walk(x):\n        yield from walk(x)\n    return list(walk(xs))\n"
        "class C:\n    def get(self, v):\n        return self.entries.get(v)\n"
        "    def m(self):\n        def inner():\n            return inner()\n"
        "def h():\n    return f(1)\n"
    )
    assert self_calling_functions(source) == ["C.m.inner", "f", "g.walk"]
