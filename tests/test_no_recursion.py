"""Guard: no walker over a formula may recurse.

Formulas can nest far deeper than Python's recursion limit, so every walk goes
through the one explicit-stack post-order in formula.subformulas_bottom_up.
This test reads the source of every module of the package and fails when a
function can call itself: directly, through a nested closure, or through other
functions of the same module (calls are matched by name, conservatively; a
call on super() reaches a base class, not the caller).
"""

import ast
from pathlib import Path

import logicrel

SRC = Path(logicrel.__file__).parent
GUARDED = sorted(path.name for path in SRC.glob("*.py"))

# The only recursion allowed, with the bound that keeps it shallow.
EXEMPT = {
    "semantics.gen_random_formula.gen": "depth-bounded: each call spends one unit of the caller's budget",
}


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name -> definition, for every function and method, nested ones included."""
    out: dict[str, ast.AST] = {}
    todo = [(tree, "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    out[qual] = child
                todo.append((child, qual + "."))
            else:
                todo.append((child, prefix))
    return out


def _on_super(attr: ast.Attribute) -> bool:
    target = attr.value
    return (
        isinstance(target, ast.Call)
        and isinstance(target.func, ast.Name)
        and target.func.id == "super"
    )


def _called_names(fn: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(fn):  # nested closures included
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute) and not _on_super(node.func):
                names.add(node.func.attr)
    return names


def recursive_functions(path: Path) -> set[str]:
    """Qualified names of the functions in a module that can reach themselves by calls."""
    fns = _functions(ast.parse(path.read_text(encoding="utf-8")))
    by_name: dict[str, list[str]] = {}
    for qual in fns:
        by_name.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
    calls = {
        qual: {callee for name in _called_names(fn) for callee in by_name.get(name, ())}
        for qual, fn in fns.items()
    }
    found = set()
    for start, callees in calls.items():
        seen, todo = set(), list(callees)
        while todo:
            qual = todo.pop()
            if qual == start:
                found.add(start)
                break
            if qual not in seen:
                seen.add(qual)
                todo.extend(calls[qual])
    return found


def test_no_formula_walker_recurses():
    found = {
        f"{name.removesuffix('.py')}.{qual}"
        for name in GUARDED
        for qual in recursive_functions(SRC / name)
    }
    assert found - set(EXEMPT) == set(), "recursive walker; fold over subformulas_bottom_up instead"
    # An exemption whose recursion is gone must be dropped from the list.
    assert set(EXEMPT) - found == set()


def test_guard_sees_direct_mutual_and_closure_recursion(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def direct(f):\n    return direct(f.child)\n"
        "def outer(f):\n    def go(g):\n        return wrap(g)\n"
        "    def wrap(g):\n        return go(g)\n    return go(f)\n"
        "def via_closure(f):\n    return (lambda: via_closure(f))()\n"
        "class P:\n    def atom(self):\n        return self.imp()\n"
        "    def imp(self):\n        return self.atom()\n"
        "def flat(f):\n    return [direct(g) for g in f]\n"
        "class E(Exception):\n    def __init__(self, m):\n        super().__init__(m)\n",
        encoding="utf-8",
    )
    assert recursive_functions(src) == {
        "direct", "outer.go", "outer.wrap", "via_closure", "P.atom", "P.imp"
    }
