"""No definition in ``src/coslaw`` that nothing in the package uses.

A static scan: every top-level function and class, and every method, must
be named somewhere in the package outside its own definition and the
exports of ``__init__.py``.  Dunder methods are called by Python itself and
are not scanned.  Names are matched as plain identifiers (a method counts
as used when any attribute of that name is read), so the scan can miss a
dead method that shares its name with a used one, but it cannot flag a
used one.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coslaw"

# names kept with no caller in the package, and who needs them
KEPT = {
    "save_semigroup": "writes the carrier file format that load_semigroup reads",
    "identity_automorphism": "the identity sigma of any carrier, built by conftest.py and two test modules",
    "compose": "the checked single product; perfbench counts its calls, and CI requires that no scan makes one",
    "conjugate": "complex conjugation of Cyc and ExpPoly values, as complex.conjugate",
    "is_abelian_fn": "the tests' check that constructed pairs of families 2-8 are abelian functions",
}


def _names(node) -> Counter:
    """Identifiers read anywhere under `node`: names and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _scan() -> tuple[list, Counter]:
    """The definitions, as (name, where, node), and the identifiers read in
    the package outside `__init__.py`."""
    defs, used = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports and __all__ are the exports
        tree = ast.parse(path.read_text(), str(path))
        used += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, f"{path.name}:{node.lineno}", node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (item.name, f"{path.name}:{item.lineno}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return defs, used


def test_every_definition_has_a_user_in_the_package():
    defs, used = _scan()
    # a use inside the definition itself (recursion) is no use
    unused = [
        f"{name} ({where})"
        for name, where, node in defs
        if used[name] <= _names(node)[name] and name not in KEPT
    ]
    assert unused == []


def test_kept_names_are_defined_and_still_have_no_user_in_the_package():
    # a kept name that gained a caller, or is gone, leaves the list
    defs, used = _scan()
    assert sorted(KEPT) == sorted({name for name, _, _ in defs if name in KEPT})
    assert [name for name in KEPT if used[name]] == []
