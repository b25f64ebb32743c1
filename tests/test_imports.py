"""No module of the package imports a name it never uses or keeps a
process-wide cache, only ``exactlin`` reduces a vector against a subspace's
basis, no module keeps a dense matrix table layer, ``knorrer`` scans no
product for strong grading, sparse vectors have one equality and one
summing kernel, only ``knorrer._lambda_data`` builds an algebra on a
subspace, only ``GradedAlgebra``'s methods read a structure table, only
the twisting verifiers fill a twisting system's verified fields, no
module holds an ``assert`` statement, every definition is reached from the
command line, and every name the bench tracer patches resolves to a
function of its own.

The first check reads each module's syntax tree: every name bound by an
``import`` or ``from ... import`` must appear as a name somewhere in the
same module.  ``__init__`` is exempt, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nqh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path as p\nfrom x import a, b as c\nprint(a, p)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def cached_functions(source):
    """The names of the functions that ``source`` decorates with
    ``functools.cache`` or ``functools.lru_cache``, bare, called or
    qualified, sorted.  Such a cache lives for the process and is shared by
    every caller; ``functools.cached_property`` keeps a value on one
    object, and is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = (decorator.attr if isinstance(decorator, ast.Attribute)
                        else getattr(decorator, "id", None))
                if name in ("cache", "lru_cache"):
                    found.append(node.name)
    return sorted(found)


def test_the_check_finds_a_process_wide_cache():
    source = ("import functools\nfrom functools import cache, lru_cache,"
              " cached_property\n@cache\ndef a(): pass\n"
              "@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
              "@lru_cache\ndef c(): pass\n"
              "class D:\n    @cached_property\n    def e(self): pass\n"
              "    @functools.cache\n    def f(self): pass\n")
    assert cached_functions(source) == ["a", "b", "c", "f"]


@pytest.mark.parametrize("module", MODULES)
def test_module_keeps_no_process_wide_cache(module):
    assert cached_functions((PACKAGE / module).read_text()) == []


def reduction_calls(source):
    """The line numbers at which ``source`` calls a ``reduce_with_coords``
    attribute.  Outside ``exactlin`` a coordinate read goes through
    ``Subspace.coords``, which raises on a vector outside the subspace, so
    no caller keeps a remainder flag of its own."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reduce_with_coords"]


def test_the_check_finds_a_reduction_call():
    source = ("coords, rem = space.reduce_with_coords(vec)\n"
              "found = space.coords(vec)\n"
              "pairs = [s.reduce_with_coords(v)[0] for v in vecs]\n")
    assert reduction_calls(source) == [1, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "exactlin.py"])
def test_only_exactlin_reduces_with_coordinates(module):
    assert reduction_calls((PACKAGE / module).read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


DENSE_TABLE_NAMES = frozenset((
    "TableOps", "matrix_ops", "map_ops", "stacked_inverse",
    "is_stacked_inverse", "matrix_inverse", "matrix_add", "identity_matrix",
    "zero_matrix"))


def dense_table_names(source):
    """The names in ``DENSE_TABLE_NAMES`` that ``source`` defines or
    imports, sorted.  sigma, sigma^!, theta and the t-inverses are all
    tables of sparse maps, so ``algebra.t_inverse_table`` is the one
    t-inverse and Def-1.1 solver and ``algebra.is_t_inverse`` the one
    inverse check; the dense tables and the bridge to them stay in
    ``tests/reference_constructions.py``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFINITIONS):
            found.add(node.name)
        elif isinstance(node, ast.Import):
            found.update((a.asname or a.name).split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(name for a in node.names
                         for name in (a.name, a.asname) if name)
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(found & DENSE_TABLE_NAMES)


def test_the_check_finds_a_dense_table_name():
    source = ("from .exactlin import matrix_mul, stacked_inverse as solve\n"
              "from .algebra import t_inverse_table as zero_matrix\n"
              "import nqh.exactlin.matrix_inverse\n"
              "class TableOps:\n    def map_ops(self): pass\n"
              "identity_matrix = None\n"
              "def is_t_inverse(): return matrix_add\n")
    assert dense_table_names(source) == [
        "TableOps", "identity_matrix", "map_ops", "matrix_inverse",
        "stacked_inverse", "zero_matrix"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_keeps_no_dense_table_layer(module):
    assert dense_table_names((PACKAGE / module).read_text()) == []


def scanned_strong_grading(source):
    """The line numbers at which ``source`` names ``strongly_graded_check``:
    as a name, an attribute, an import or an import alias.  The pipelines
    read strong grading off y2^2 = 1 at the oracle step and off t t = 1 in
    the minus case (proofs in ``knorrer``), so they scan no products."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(n.rpartition(".")[2] == "strongly_graded_check" for n in names):
            found.append(node.lineno)
    return sorted(set(found))


def test_the_check_finds_a_strong_grading_scan():
    source = ("from .algebra import strongly_graded_check as scan\n"
              "import nqh.algebra\n"
              "ok = nqh.algebra.strongly_graded_check(A)\n"
              "same = strongly_graded_check\n"
              "fine = strongly_graded(A)\n")
    assert scanned_strong_grading(source) == [1, 3, 4]


def test_knorrer_scans_no_strong_grading():
    assert scanned_strong_grading((PACKAGE / "knorrer.py").read_text()) == []


def second_vector_kernels(source, module):
    """The line numbers at which ``source``, the module file ``module``,
    defines, imports or names ``vec_eq``, or takes the kernel's cancel step
    ``<dict>.pop(<key>, None)`` outside ``add_scaled`` in ``exactlin.py``.
    A sparse vector stores no zero coefficient, so ``==`` compares two of
    them, and every sum goes through ``exactlin.add_scaled``."""
    tree = ast.parse(source)
    kernel = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "add_scaled"
              and module == "exactlin.py" for sub in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        elif isinstance(node, DEFINITIONS):
            names = [node.name]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            names = []
        if any(n.rpartition(".")[2] == "vec_eq" for n in names):
            found.add(node.lineno)
        elif (isinstance(node, ast.Call) and id(node) not in kernel
              and isinstance(node.func, ast.Attribute) and node.func.attr == "pop"
              and len(node.args) == 2 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value is None):
            found.add(node.lineno)
    return sorted(found)


def test_the_check_finds_a_second_vector_kernel():
    source = ("from .algebra import vec_eq as same\n"
              "def add_scaled(out, vec, coeff):\n"
              "    out.pop(k, None)\n"
              "def vec_eq(a, b):\n    return a == b\n"
              "def concat(out):\n    out.pop(word, None)\n"
              "ok = algebra.vec_eq(x, y)\n"
              "out.pop(k)\nout.pop(k, 0)\n")
    assert second_vector_kernels(source, "exactlin.py") == [1, 4, 7, 8]
    assert second_vector_kernels(source, "algebra.py") == [1, 3, 4, 7, 8]


def test_vectors_have_one_equality_and_one_kernel():
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in second_vector_kernels(path.read_text(), path.name)]
    assert found == []


class _CallSites(ast.NodeVisitor):
    """The innermost function around each call of ``name``, by name or
    attribute, in visiting order; "<module>" outside every function."""

    def __init__(self, name):
        self.name, self.stack, self.found = name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) == self.name:
            self.found.append(self.stack[-1])
        self.generic_visit(node)


def call_sites(source, name):
    """The functions of ``source`` that call ``name``, once per call."""
    visitor = _CallSites(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_check_finds_each_call_site():
    source = ("from .algebra import GradedAlgebra\n"
              "S = GradedAlgebra(labels, table, unit, degrees)\n"
              "def corner(A, e):\n"
              "    def inner():\n        return algebra.GradedAlgebra(A, s, e)\n"
              "    return GradedAlgebra(A, s, e), inner\n"
              "def graded(): return GradedAlgebras(A)\n")
    assert call_sites(source, "GradedAlgebra") == ["<module>", "inner", "corner"]


def test_only_lambda_data_builds_an_algebra_on_a_subspace():
    """``knorrer`` works on subspaces (the eigenspaces S and M, the corner,
    the degree-0 part), and the one algebra it builds on one is the ring S
    of ``_lambda_data``.  Lambda and the Zhang twist are certified onto
    subspaces of the big algebras (``algebra.verify_iso``), so the corner
    and the degree-0 part get no algebra of their own, and no module keeps
    a ``restrict`` to build one."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert call_sites(sources["knorrer.py"], "GradedAlgebra") == ["_lambda_data"]
    assert [(name, caller) for name, source in sources.items()
            for caller in call_sites(source, "restrict")] == []
    assert not [name for name, source in sources.items()
                for node in ast.walk(ast.parse(source))
                if isinstance(node, DEFINITIONS) and node.name == "restrict"]


def table_reads(source):
    """The line numbers at which ``source`` reads an attribute ``table``
    outside the methods of a class ``GradedAlgebra``.  Every other reader
    multiplies through ``GradedAlgebra.mul`` or ``GradedAlgebra.row``, so
    the storage of the products is known to that class alone."""
    tree = ast.parse(source)
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "GradedAlgebra"
              for method in node.body if isinstance(method, DEFINITIONS)
              for sub in ast.walk(method)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "table"
                   and id(node) not in inside})


def test_the_check_finds_a_table_read():
    source = ("class GradedAlgebra:\n"
              "    table = None\n"
              "    def row(self, i):\n        return self.table[i]\n"
              "def radical(algebra):\n    return algebra.table[0][0]\n"
              "class Other:\n    def row(self, i):\n        return self.table[i]\n"
              "rows = [r for r in E.table]\n"
              "table = E.row(0)\n")
    assert table_reads(source) == [6, 9, 10]


def test_only_graded_algebra_reads_its_table():
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in table_reads(path.read_text())]
    assert found == []


VERIFIER_FIELDS = ("t_inverses", "twisted", "certificate", "generators", "exchange_ok")
VERIFIERS = ("verify_twisting_M2", "verify_twisting_prod", "_certify_exchange")


def verifier_field_writes(source, module):
    """The line numbers at which ``source``, the module file ``module``,
    sets or deletes an attribute named like a field that the twisting
    verifiers fill, by assignment or by ``setattr``, outside those
    verifiers in ``twist.py``.  A twisting system is fixed once verified,
    so nothing else may write them.  ``self.<name>`` in a method of a class
    other than ``TwistingSystemM2`` is that class's own attribute (such as
    ``QuadraticPresentation.generators``), and is allowed."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef) and module == "twist.py"
                and node.name in VERIFIERS):
            allowed.update(id(sub) for sub in ast.walk(node))
        elif isinstance(node, ast.ClassDef) and node.name != "TwistingSystemM2":
            allowed.update(id(sub) for sub in ast.walk(node)
                           if isinstance(sub, ast.Attribute)
                           and getattr(sub.value, "id", None) == "self")
    found = set()
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in VERIFIER_FIELDS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.add(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in VERIFIER_FIELDS):
            found.add(node.lineno)
    return sorted(found)


def test_the_check_finds_a_verifier_field_write():
    source = ("def verify_twisting_M2(system):\n    system.t_inverses = ()\n"
              "def run(system):\n    system.twisted = None\n"
              "    n, system.generators = 1, [0]\n"
              "class QuadraticPresentation:\n"
              "    def __init__(self, generators):\n        self.generators = generators\n"
              "class TwistingSystemM2:\n    def reset(self):\n        del self.certificate\n"
              "setattr(system, 'exchange_ok', True)\n"
              "ok = system.exchange_ok or system.twisted\n")
    assert verifier_field_writes(source, "twist.py") == [4, 5, 11, 12]
    assert verifier_field_writes(source, "knorrer.py") == [2, 4, 5, 11, 12]


def test_only_the_twisting_verifiers_fill_a_system():
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in verifier_field_writes(path.read_text(), path.name)]
    assert found == []


def assert_statements(source):
    """The line numbers of the ``assert`` statements in ``source``.  Python
    drops them under ``-O``, so an input guard written as one vanishes;
    the package raises its own errors instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = ("def f(algebra):\n"
              "    assert algebra.group_rank == 1\n"
              "    if algebra.dim:\n        assert algebra.dim > 0, 'empty'\n"
              "    return 'assert'\n"
              "class C:\n    def g(self):\n        assert self\n")
    assert assert_statements(source) == [2, 4, 8]


def test_the_package_guards_no_input_with_assert():
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in assert_statements(path.read_text())]
    assert found == []


def mentioned_names(nodes):
    """Every name that ``nodes`` mention: identifiers, attributes, and
    string constants that are identifiers, such as the entries of
    ``__all__`` or the name that ``getattr`` reads."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and sub.value.isidentifier()):
                out.add(sub.value)
    return out


def unreached_definitions(sources, root):
    """The definitions in ``sources``, {module: source}, that no chain of
    names reaches from the definition ``root``, (module, qualname), as
    sorted "module.qualname".

    A definition is a module-level function or class, or a method of such a
    class.  The closure starts from ``root``, from every module-level
    statement other than a definition or an import (``REGISTRY``,
    ``__all__``), and from every dunder method, which Python calls without
    naming it.  A reached definition reaches each definition whose last
    name part it mentions; a class mentions what its bases, decorators and
    non-method statements mention.  Names match across modules, so a method
    called through an attribute of its name is reached, whatever the
    object."""
    definitions, start = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, DEFINITIONS):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    start.append(node)
                continue
            definitions[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFINITIONS):
                        definitions[module, f"{node.name}.{sub.name}"] = sub
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)

    def reached_from(nodes):
        return [key for name in mentioned_names(nodes)
                for key in by_name.get(name, ())]

    pending = [root, *reached_from(start)]
    pending += [key for name, keys in by_name.items()
                if name.startswith("__") and name.endswith("__") for key in keys]
    reached = set()
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        node = definitions[key]
        if isinstance(node, ast.ClassDef):
            pending += reached_from(
                [*node.bases, *node.keywords, *node.decorator_list,
                 *(sub for sub in node.body if not isinstance(sub, DEFINITIONS))])
        else:
            pending += reached_from([node])
    return sorted(".".join(key) for key in definitions.keys() - reached)


def test_the_check_finds_an_unreached_definition():
    source = ("def main():\n    return Box().used()\n"
              "def helper():\n    return orphan()\n"
              "def orphan():\n    pass\n"
              "class Box:\n    def __init__(self):\n        pass\n"
              "    def used(self):\n        return 1\n"
              "    def unused(self):\n        return helper()\n"
              "TABLE = {'k': registered}\n"
              "def registered():\n    pass\n")
    # orphan is called only from helper, which nothing reaches; Box.used
    # is called only through an attribute
    assert unreached_definitions({"m": source}, ("m", "main")) == [
        "m.Box.unused", "m.helper", "m.orphan"]


def test_the_command_line_reaches_every_definition():
    """Code that only the tests run lives in ``tests/``, not here."""
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreached_definitions(sources, ("cli", "main")) == []


def traced_functions():
    """{span name: function} of every name in ``perfbench.tracing.TRACED``,
    resolved the way the tracer resolves it."""
    import importlib

    from perfbench.tracing import TRACED

    out = {}
    for layer, functions in TRACED.items():
        home = importlib.import_module(f"nqh.{layer}")
        for qualname in functions:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            out[f"{layer}.{attr}"] = (owner.__dict__[attr] if owner_name
                                      else getattr(home, attr))
    return out


def test_every_traced_name_resolves_to_its_own_function():
    """The tracer wraps every binding of a traced function, so an alias such
    as ``g = f`` between two traced names would be wrapped twice and counted
    in both spans."""
    functions = traced_functions()
    assert all(callable(fn) for fn in functions.values())
    names_by_id = {}
    for name, fn in functions.items():
        names_by_id.setdefault(id(fn), []).append(name)
    assert [names for names in names_by_id.values() if len(names) > 1] == []
