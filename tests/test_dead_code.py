"""No code without a caller: every module-level function or class in
`src/dopm` is read somewhere in `src/dopm` outside its own definition,
and every method other than a dunder is read as an attribute (`.name`)
somewhere in `src/dopm`.  Exporting a name through `dopm.__init__` is
not a use.  Every module-level import of a module other than
`__init__.py`, whose imports are its exports, is read in that module.
Every field of a `@dataclass` is read as an attribute somewhere in
`src/dopm`.  Read off the syntax trees alone."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).parents[1] / "src" / "dopm"

# methods that a framework calls by name, never the package itself
HOOKS = {
    "_Parser.error",        # argparse reports a flag error through it
    # dopm/__init__.py's module __getattr__, which the import system
    # calls for a name the module does not hold (PEP 562)
    "__getattr__",
    # the dense view of the invariants, read by the benchmark's checks
    # (bench/workloads.py) and by the tests, never by the package
    "InvariantSpace.monomials",
    "InvariantSpace.basis",
}


def _references(node) -> tuple:
    """Names read as a plain name, and names read as an attribute, each
    by count."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return names, attrs


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
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attrs += a
    out = []
    for fname, tree in trees.items():
        for qual, name, node, method in _definitions(tree):
            if qual in HOOKS:
                continue
            if method and name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            used = attrs[name] - own_attrs[name]
            if not method:
                used += names[name] - own_names[name]
            if not used:
                out.append(f"{fname}:{node.lineno} {qual}")
    return out


def test_every_definition_has_a_caller():
    assert _uncalled() == []


def test_the_guard_names_an_orphan_and_an_unused_method(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "poly.py", "a") as fh:
        fh.write("\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
                 "\n\ndef _exported(n):\n    return n\n"
                 "\n\nclass _Host:\n    def idle(self):\n        pass\n"
                 "\n    def spare(self):\n        pass\n"
                 "\n\ndef _user(spare):\n    return spare\n"
                 "\n\n_Host()\n_user(0)\n")
    with open(tmp_path / "__init__.py", "a") as fh:
        fh.write("\nfrom .poly import _exported\n"
                 "__all__ += [\"_exported\"]\n")
    assert [s.split()[1] for s in _uncalled(tmp_path)] == [
        "_orphan", "_exported", "_Host.idle", "_Host.spare"]


def _unused_imports(src=SRC):
    """The names that a module-level import binds and its module never
    reads; `from __future__` imports bind nothing."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names, _ = _references(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not names[bound]:
                        out.append(f"{path.name}:{node.lineno} {bound}")
    return out


def test_every_import_is_read():
    assert _unused_imports() == []


def test_the_guard_names_an_unused_import(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "poly.py", "a") as fh:
        fh.write("\nimport json\nimport os.path\n"
                 "from math import comb as _comb, gcd\n"
                 "\n_read = (os.sep, gcd)\n")
    assert [s.split()[1] for s in _unused_imports(tmp_path)] == [
        "json", "_comb"]


def _is_dataclass(node) -> bool:
    """Whether a class is decorated `@dataclass` or `@dataclass(...)`."""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        name = dec.attr if isinstance(dec, ast.Attribute) else \
            getattr(dec, "id", None)
        if name == "dataclass":
            return True
    return False


def _unread_fields(src=SRC):
    """The fields of each module-level `@dataclass` that nothing in `src`
    reads as an attribute; a `ClassVar` is not a field."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    attrs = Counter()
    for tree in trees.values():
        attrs += _references(tree)[1]
    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    continue
                ann = item.annotation
                if isinstance(ann, ast.Subscript):
                    ann = ann.value
                if "ClassVar" in (getattr(ann, "id", None),
                                  getattr(ann, "attr", None)):
                    continue
                if not attrs[item.target.id]:
                    out.append(f"{fname}:{item.lineno} "
                               f"{node.name}.{item.target.id}")
    return out


def test_every_dataclass_field_is_read():
    assert _unread_fields() == []


def test_the_guard_names_an_unread_field(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "poly.py", "a") as fh:
        fh.write("\nimport dataclasses\nfrom dataclasses import dataclass"
                 "\nfrom typing import ClassVar\n"
                 "\n\n@dataclass(frozen=True)\nclass _Kept:\n"
                 "    read_here: int\n    never_read: int = 0\n"
                 "    constant: ClassVar[int] = 1\n"
                 "\n\n@dataclasses.dataclass\nclass _Plain:\n"
                 "    also_unread: str = ''\n"
                 "\n\nclass _NotData:\n    annotated: int = 0\n"
                 "\n\n_read = _Kept(0).read_here\n")
    assert [s.split()[1] for s in _unread_fields(tmp_path)] == [
        "_Kept.never_read", "_Plain.also_unread"]
