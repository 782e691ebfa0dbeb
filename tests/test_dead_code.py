"""No code without a caller: every module-level function or class in
`src/dopm` is used somewhere in `src/dopm` outside its own definition or
exported through `dopm.__all__`, and every method other than a dunder is
used somewhere in `src/dopm`.  Read off the syntax trees alone."""

import ast
import pathlib
from collections import Counter

import dopm

SRC = pathlib.Path(__file__).parents[1] / "src" / "dopm"

# methods that a framework calls by name, never the package itself
HOOKS = {
    "_Parser.error",        # argparse reports a flag error through it
    # the dense view of the invariants, read by the benchmark's checks
    # (bench/workloads.py) and by the tests, never by the package
    "InvariantSpace.monomials",
    "InvariantSpace.basis",
}


def _references(node) -> Counter:
    """Names read as a plain name or as an attribute, by count."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, bare name, node, is a method) for each module-level
    function or class and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _uncalled(src=SRC):
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    out = []
    for fname, tree in trees.items():
        for qual, name, node, method in _definitions(tree):
            if qual in HOOKS:
                continue
            if method and name.startswith("__") and name.endswith("__"):
                continue
            used = total[name] - _references(node)[name]
            if used or (not method and name in dopm.__all__):
                continue
            out.append(f"{fname}:{node.lineno} {qual}")
    return out


def test_every_definition_has_a_caller():
    assert _uncalled() == []


def test_the_guard_names_an_orphan_and_an_unused_method(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "poly.py", "a") as fh:
        fh.write("\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
                 "\n\nclass _Host:\n    def idle(self):\n        pass\n"
                 "\n\n_Host()\n")
    assert [s.split()[1] for s in _uncalled(tmp_path)] == ["_orphan",
                                                            "_Host.idle"]
