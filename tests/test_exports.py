"""The package ships only routes something runs.  Every name ``polyshift``
exports, and every public method or property of an exported class, needs a
caller in the package's own modules or in perfbench/, or a line on the
allowlists below that says why it stays.  A module-level private function
needs a caller in the package itself.  References that only the tests
compare against live in tests/util.py."""

import ast
import inspect
import types
from pathlib import Path

import polyshift

PACKAGE = Path(polyshift.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    "distance": "README library entry point: the exchange distance of two monomials",
    "minimal_generators": "README library entry point: G(I) of a generator list",
    "first_shift_by_distance": "ROADMAP item 3: the order-free HS_1 for audited instances",
    "shift_multiset": "ROADMAP item 2: the certificate's Betti table",
    "ek_betti": "ROADMAP item 2: a closed-form route of betti for strongly stable ideals",
    "borel_generators": "ROADMAP items 4-5: the covered field and the census read case (iv) off it",
}

ALLOWED_MEMBERS = {
    "SimplicialComplexFrame.faces": "ROADMAP item 8: the frame the tracer hooks, "
    "kept with it until the tracer reads counters",
    "BettiTable.totals": "library view of the table: the total Betti numbers; "
    "the betti report sums its exponent rows directly, and the tests hold the two equal",
}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _used_in_package() -> set[str]:
    """Names loaded in the package's modules, plain or as ``module.name``;
    a definition's own body does not count as its caller."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and _root(node) in MODULES:
                    names.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return used


def private_functions() -> set[str]:
    """Module-level functions of the package whose names start with one
    underscore."""
    return {
        stmt.name
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    }


def _used_in_perfbench() -> set[str]:
    """Names perfbench/ reads from the package: attributes of its imported
    ``polyshift`` modules, names it imports, and the ``module.name`` span
    strings of its tracer."""
    used = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {"polyshift"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names
                    if alias.name.split(".")[0] == "polyshift"
                )
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polyshift"):
                aliases.update(alias.asname or alias.name for alias in node.names)
                used.update(alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _root(node) in aliases:
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, _, name = node.value.partition(".")
                if name and ("_" + module in MODULES or module in MODULES):
                    used.add(name)
    return used


def exported() -> set[str]:
    return {
        name
        for name, value in vars(polyshift).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_every_export_has_a_caller_or_a_reason():
    used = _used_in_package() | _used_in_perfbench()
    assert sorted(exported() - used - set(ALLOWED)) == []


def test_allowlist_holds_only_exported_names_without_a_caller():
    used = _used_in_package() | _used_in_perfbench()
    assert set(ALLOWED) <= exported()
    # a name that gains a caller comes off the list
    assert sorted(set(ALLOWED) & used) == []


def test_every_private_function_has_a_caller_in_the_package():
    # a helper that only the tests call is a reference: it goes to tests/util.py
    assert sorted(private_functions() - _used_in_package()) == []


def test_perfbench_names_are_seen():
    # the tracer reads these through span strings, env records and ps.<name>
    assert {
        "lcm_lattice", "upper_koszul", "reduced_homology_ranks", "max_pd",
        "total_betti_from_certificate", "contains_mask", "HAVE_NUMBA",
    } <= _used_in_perfbench()


def _attributes_read(node) -> set[str]:
    """Attribute names read under the node; a function's own body does not
    count as a caller of a method with its name."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        inner = _attributes_read(child)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner.discard(child.name)
        found |= inner
    return found


def _members_used() -> set[str]:
    """Member names read as attributes in the package's modules or in
    perfbench/."""
    used = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        used |= _attributes_read(ast.parse(path.read_text()))
    return used


def exported_members() -> set[str]:
    """``Class.member`` for each public method or property that an exported
    class defines itself."""
    out = set()
    for name in exported():
        cls = getattr(polyshift, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            if not member.startswith("_") and isinstance(
                value, (property, classmethod, staticmethod, types.FunctionType)
            ):
                out.add(f"{name}.{member}")
    return out


def test_every_public_member_has_a_caller_or_a_reason():
    used = _members_used()
    unused = {m for m in exported_members() if m.partition(".")[2] not in used}
    assert sorted(unused - set(ALLOWED_MEMBERS)) == []


def test_member_allowlist_holds_only_members_without_a_caller():
    used = _members_used()
    assert set(ALLOWED_MEMBERS) <= exported_members()
    assert sorted(m for m in ALLOWED_MEMBERS if m.partition(".")[2] in used) == []
