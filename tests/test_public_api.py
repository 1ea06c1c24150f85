"""No public name of the package survives only because its own tests use it,
and the benchmark's tracer reaches the kernels the solver runs.

Every public function, class and method defined in src/mgritlab must be
referenced somewhere in the package or the benchmark (perfbench/), not
counting the re-exports of __init__ and docstrings. A string constant that
is exactly the name counts as a reference, because the benchmark's tracer
looks methods up by name.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "mgritlab"


def _docstrings(tree: ast.Module) -> set:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _references(tree: ast.Module) -> set:
    """Names read, attributes taken, names imported, and identifier-like
    string constants (docstrings aside)."""
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in docstrings \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, name) of the module's public functions and classes
    and of their classes' public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               + sorted((REPO / "perfbench").glob("*.py"))}
    referenced = set()
    for path, tree in sources.items():
        if path != PACKAGE / "__init__.py":
            referenced |= _references(tree)
    defined = [entry for path, tree in sources.items()
               if path.parent == PACKAGE
               for entry in _public_definitions(tree, path.stem)]
    assert len(defined) > 50
    unused = [qualified for qualified, name in defined
              if name not in referenced]
    assert unused == []


# tracing.install patches the package for the rest of its process, so it
# runs in a process of its own; prints the names of the spans it records
_TRACE_ONE_RHS_EACH = """
import numpy as np
import tracing
from mgritlab import (FluxConfig, SemiDiscreteOperator, SpatialGrid,
                      WenoConfig, make_model)
tracer = tracing.Tracer()
tracing.install(tracer)
for kind, flux, order in (("euler", "roe", 5), ("shallow-water", "lf", 3)):
    model = make_model(kind)
    op = SemiDiscreteOperator(model, SpatialGrid(1.0, 16), FluxConfig(
        kind=flux, weno=WenoConfig(order=order)))
    op.rhs(np.ones((model.n_components, 16)))
print(" ".join(sorted({span[0] for span in tracer.spans})))
"""


def test_tracer_spans_reach_the_right_hand_side_kernels():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), str(REPO / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _TRACE_ONE_RHS_EACH],
                          capture_output=True, text=True, env=env,
                          timeout=120, cwd=REPO)
    assert done.returncode == 0, done.stderr
    spans = set(done.stdout.split())
    assert {"weno.reconstruct_interface_states", "flux.roe_flux",
            "flux.lf_flux", "flux.lf_alpha", "flux.rhs"} <= spans, spans
