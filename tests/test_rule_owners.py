"""Each engine rule is named only in the module that owns it.

The grading mask (a monomial's census, a generator's needs and the shared
empty image of a killed action) is fock's; the mode contraction and the
bracket's uncached closed form, reached through the memo's __wrapped__,
are liealg's.  Another module calls the owner's functions by name
(fock._action_rows, liealg._contract, liealg._closed_pair_bracket) and
keeps no copy of the rule.  The sources are parsed, not run.
"""

import ast
from pathlib import Path

import jordan_voa
from jordan_voa import fock, liealg, suite

PACKAGE_DIR = Path(jordan_voa.__file__).parent

OWNERS = {
    "_CENSUS": "fock.py",
    "_NEEDS": "fock.py",
    "_EMPTY": "fock.py",
    "_contraction": "liealg.py",
    "__wrapped__": "liealg.py",
}


def _names(path: Path) -> set:
    """Every identifier a module names: loaded, stored, imported, defined or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_each_rule_is_named_only_in_its_owner():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 9
    strays = sorted((path.name, name) for path in modules for name in _names(path) & set(OWNERS)
                    if OWNERS[name] != path.name)
    assert strays == []


def test_each_owner_names_its_rule():
    assert [name for name, owner in OWNERS.items() if name not in _names(PACKAGE_DIR / owner)] == []


def test_the_battery_calls_the_owners_functions():
    assert suite._action_rows is fock._action_rows
    assert suite._contract is liealg._contract
    closed = liealg._closed_pair_bracket
    assert suite._closed_pair_bracket is closed is liealg._pair_bracket.__wrapped__
