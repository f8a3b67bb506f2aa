"""The package keeps only what it computes: every top-level function in
src/eqtwist is reached by the package itself, by its public names, or
by the benchmark.  A function that only tests call belongs in the test
tree (see tests/verification.py).

Reach is read from the syntax tree: a function counts as used when its
own module loads its name outside its own body, when another module of
the package or a file under bench/ imports it by name, or when the
benchmark's tracer lists it.  Attribute reads are not counted, so
`itertools.product` does not keep a function named `product` alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eqtwist"
BENCH = ROOT / "bench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _imports(tree: ast.Module, package: str | None) -> set[tuple[str, str]]:
    """(module, name) for each `from .module import name` (package None)
    or `from package.module import name`."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if package is None and node.level == 1:
            module = node.module
        elif package is not None and node.module.startswith(package + "."):
            module = node.module[len(package) + 1:]
        else:
            continue
        out.update((module, alias.name) for alias in node.names)
    return out


def _loads_outside(tree: ast.Module, fn: ast.FunctionDef) -> bool:
    inside = {id(n) for n in ast.walk(fn)}
    return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
               and n.id == fn.name and id(n) not in inside
               for n in ast.walk(tree))


def _traced() -> set[tuple[str, str]]:
    for node in _tree(BENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] \
                == ["TARGETS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py names no TARGETS")


def unreached(src: Path = SRC, bench: Path = BENCH) -> list[str]:
    """module.function for every top-level function nothing reaches."""
    trees = {p.stem: _tree(p) for p in sorted(src.glob("*.py"))}
    reached = set(_traced())
    for module, tree in trees.items():
        # __init__ re-exports the public names the same way
        reached |= {(m, n) for m, n in _imports(tree, None) if m != module}
    for path in sorted(bench.rglob("*.py")):
        reached |= _imports(_tree(path), "eqtwist")
    out = []
    for module, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    (module, fn.name) not in reached and \
                    not _loads_outside(tree, fn):
                out.append(f"{module}.{fn.name}")
    return out


def test_src_holds_no_function_that_only_tests_reach():
    assert unreached() == []
