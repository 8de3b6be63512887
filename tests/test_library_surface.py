"""The library holds what its results and checks reach, and the tracer finds it.

A public function or class, or a public method of a public class, stays in
src/zeemanlab only if the package itself, an acceptance criterion
(tests/test_acceptance.py) or the benchmark tracer (perfbench/tracing.py)
uses it; code that only unit tests need lives in tests/reference.py.  Uses
are found with ``ast``: a name loaded or an attribute read counts, an
import or an ``__all__`` entry does not, and neither does a use inside the
definition itself."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zeemanlab"


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs the tracer replaces, read from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # besides its span targets, the tracer counts the nodes of every grid
    return [*tracing.SPAN_TARGETS, ("zeemanlab.coherent_states", "sphere_grid")]


def _uses(node: ast.AST) -> Counter:
    """Names loaded and attributes read anywhere under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _public_definitions(tree: ast.Module):
    """(node, qualified name) of each public function and class, and of
    each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub, f"{node.name}.{sub.name}"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_tracer_target_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr in _tracer_targets()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"the tracer wraps names the package no longer has: {missing}"


def test_every_dunder_all_entry_resolves():
    missing = []
    for stem in _trees():
        module = importlib.import_module("zeemanlab" if stem == "__init__" else f"zeemanlab.{stem}")
        names = getattr(module, "__all__", ())
        missing += [f"{stem}.{name}" for name in names if not hasattr(module, name)]
    assert not missing


def test_every_public_definition_is_used_by_the_package_the_acceptance_suite_or_the_tracer():
    trees = _trees()
    package_uses = sum((_uses(tree) for tree in trees.values()), Counter())
    outside = _uses(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    outside.update(attr for _, attr in _tracer_targets())
    unused = []
    for stem, tree in trees.items():
        for node, qualname in _public_definitions(tree):
            elsewhere = package_uses[node.name] - _uses(node)[node.name]
            if not elsewhere and not outside[node.name]:
                unused.append(f"{stem}.{qualname}")
    assert not unused, f"only unit tests use these; move them to tests/reference.py: {unused}"
