"""Every module in src/cfkit uses each name it imports (the package
__init__ re-exports by importing, so it is left out), holds no assert
statement, and every module-level private name is referenced somewhere in
the package; every name the package re-exports is used by the library, the
benchmark or the acceptance suite; one function alone touches Fraction's
private slots, and only a pair's value and the exact split's one-gcd
reduction call it; only the code that proves a record's derived state
writes past its read-only __setattr__, by object.__setattr__, a slot's
setter or the unchecked builder; the test oracle brute.py takes only type
names from cfkit, and QuadExt has no order; neither importing the package
nor a CLI run on exact input loads mpmath, dataclasses or inspect."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_guard_sees_an_assert():
    assert _assert_lines("x = 1\nif x:\n    assert x, 'never under -O'\n") == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # self-checks raise, so they survive python -O
    assert _assert_lines(path.read_text()) == []


def _unreferenced_private_names(sources: list[str]) -> list[str]:
    """Names with one leading underscore that a module defines at its top
    level and that no source reads, imports or reaches as an attribute."""
    defined, used = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(n for n in defined - used if n.startswith("_") and not n.startswith("__"))


def test_guard_sees_an_unreferenced_private_name():
    sources = [
        "_A, _B = 1, 2\n_c: int = _A\ndef _d(): pass\nclass _E: pass\n__all__ = []\n",
        "from m import _E\n",
    ]
    assert _unreferenced_private_names(sources) == ["_B", "_c", "_d"]


def test_every_private_name_is_referenced():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced_private_names(sources) == []


ROOT = PACKAGE.parent.parent
#: the callers a public name must have: the library itself, the benchmark and
#: the acceptance suite; the unit tests alone keep no name alive
CALLERS = [*MODULES, *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _uncalled_exports(init_source: str, sources: list[str]) -> list[str]:
    """Names the package __init__ re-exports that no source uses as code
    (an AST name or attribute; an import, docstring or comment is no use)."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init_source).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set()
    for node in (n for source in sources for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return [name for name in exported if name not in used]


def test_guard_sees_an_uncalled_export():
    init = '"""f and g."""\nfrom .m import f, g, h as k\nfrom .n import j\n'
    sources = ["from cfkit import g, j\nimport cfkit\n# g()\nprint(f(), cfkit.k)\n", "'j()'\n"]
    assert _uncalled_exports(init, sources) == ["g", "j"]


def test_every_export_has_a_caller():
    sources = [path.read_text() for path in CALLERS]
    assert _uncalled_exports((PACKAGE / "__init__.py").read_text(), sources) == []


FRACTION_SLOTS = {"_numerator", "_denominator"}
#: mpmath's raw values: the (sign, man, exp, bc) tuple of an mpf, and a pair of them
MPMATH_SLOTS = {"_mpf_", "_mpc_"}


def _slot_users(sources: dict[str, str], slots: set[str]) -> list[str]:
    """module.name of each top-level statement that names one of the slots,
    as an attribute or as a string."""
    users = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if any(
                (isinstance(n, ast.Attribute) and n.attr in slots)
                or (isinstance(n, ast.Constant) and n.value in slots)
                for n in ast.walk(node)
            ):
                users.append(f"{module}.{getattr(node, 'name', node.lineno)}")
    return users


def _fraction_slot_users(sources: dict[str, str]) -> list[str]:
    return _slot_users(sources, FRACTION_SLOTS)


def test_guard_sees_a_fraction_slot():
    sources = {
        "m": "def f(x):\n    x._numerator = 1\ndef g(x):\n    return getattr(x, '_denominator')\n"
             "def h(x):\n    return x.numerator\nY = Z._denominator\n",
    }
    assert _fraction_slot_users(sources) == ["m.f", "m.g", "m.7"]


def test_one_function_touches_fraction_slots():
    # scalars.coprime_fraction builds a Fraction without its gcd
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _fraction_slot_users(sources) == ["scalars.coprime_fraction"]


def _users(sources: dict[str, str], name: str) -> list[str]:
    """module.qualname of each function or class body that reads `name`, as a
    bare name or as an attribute, to call it or to pass it on; an import or a
    definition of `name` is no use."""
    users = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load)) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                users.append(".".join([module, *scope]))
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, [])
    return users


def test_guard_sees_a_user():
    sources = {
        "m": "from n import g\ndef f(x):\n    return g(x)\nclass C:\n    def g(self):\n        return 0\n"
             "    def h(self):\n        return (g if self else k)(1)\n    def v(self):\n        return s.g\n"
             "def u():\n    g = 2\n    return 1\ny = [g]\n",
    }
    assert _users(sources, "g") == ["m.f", "m.C.h", "m.C.v", "m"]


def test_one_caller_skips_the_gcd_of_a_convergent():
    # only a pair that pair_at proved coprime builds its Fraction without a gcd;
    # the exact eigen split reduces each of its values by one gcd of its own
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _users(sources, "coprime_fraction") == ["cfcore.ConvergentPair.value", "periodic._lowest"]


#: the writers past a frozen record's read-only `__setattr__`: object's own,
#: a slot's member-descriptor setter, and the record's builder without checks
WRITERS = ("__setattr__", "__set__", "_unchecked")


def _producers(sources: dict[str, str]) -> list[str]:
    """Each user of a writer that is not a record's `__post_init__`: the code
    that writes past a frozen record's read-only `__setattr__`."""
    return sorted({user for name in WRITERS for user in _users(sources, name)
                   if not user.endswith(".__post_init__")})


def test_guard_sees_a_producer():
    sources = {
        "m": "_put = object.__setattr__\nclass R:\n    def __post_init__(self):\n"
             "        object.__setattr__(self, 'x', 1)\ndef make():\n    r = R()\n"
             "    object.__setattr__(r, 'y', 2)\n    object.__setattr__(r, 'z', 3)\n    return r\n"
             "def read(r):\n    return r.__setattr__\n"
             "def slot(r):\n    R.x.__set__(r, 4)\n_new_r = R._unchecked\n"
             "class S:\n    def copy(self):\n        return R._unchecked(1)\n",
    }
    # once each, __post_init__ left out
    assert _producers(sources) == ["m", "m.S.copy", "m.make", "m.read", "m.slot"]


def _written_fields(source: str, function: str) -> list[str]:
    """The field names that a module-level function writes with
    `object.__setattr__(target, "name", value)`, in `ast.walk` order."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return [
        node.args[1].value for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and isinstance(node.args[1], ast.Constant)
    ]


def test_guard_sees_a_written_field():
    source = ("def make(m, p):\n    object.__setattr__(m, 'exact', 1)\n    if p:\n"
              "        object.__setattr__(m, 'prec', p)\n    setattr(m, 'x', 2)\n    return m\n")
    assert _written_fields(source, "make") == ["exact", "prec"]


def test_one_producer_for_derived_state():
    # a record's derived state is set only where it is proved, never by a caller:
    # the pair's coprime mark and the period matrix's integer form, precision
    # and pairs; the decorator's __init__ and builder set the fields through
    # their slots, and scalars builds values with that builder, unchecked
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _producers(sources) == ["cfcore.pair_at", "errors.record", "periodic.build_period_matrix", "scalars"]
    assert _written_fields(sources["periodic"], "build_period_matrix") == ["scaled", "prec", "pairs"]


def test_guard_sees_an_mpmath_slot():
    sources = {
        "m": "def f(z):\n    return z.re._mpf_\ndef g(z):\n    return getattr(z, '_mpc_')\n"
             "def h(z):\n    return z.real\nclass C:\n    x = property(lambda s: s.v._mpf_)\n",
    }
    assert _slot_users(sources, MPMATH_SLOTS) == ["m.f", "m.g", "m.C"]


def test_only_scalars_and_the_literal_writer_read_mpmath_slots():
    # the complex tower's libmp arithmetic and its exact view live in scalars;
    # specfile.format_literal writes each part's digits from its raw tuple
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = _slot_users(sources, MPMATH_SLOTS)
    assert [u for u in users if not u.startswith("scalars.")] == ["specfile.format_literal"]
    assert "scalars._dyadic" in users


BRUTE = Path(__file__).resolve().parent / "brute.py"
#: the value types whose parts the oracle reads; everything else it computes itself
ORACLE_TYPES = ["ComplexFloat", "QuadExt"]


def _cfkit_imports(source: str) -> list[str]:
    """Each name a source imports from cfkit or one of its modules, and each
    cfkit module it imports whole."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cfkit":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "cfkit"]
    return names


def test_guard_sees_a_cfkit_import():
    source = BRUTE.read_text() + "import cfkit.periodic\ndef f():\n    from cfkit.scalars import abs_lt\n"
    assert _cfkit_imports(source) == [*ORACLE_TYPES, "cfkit.periodic", "abs_lt"]


def test_oracle_imports_only_cfkit_type_names():
    # brute.py judges cfkit's verdicts, so it shares none of cfkit's arithmetic
    assert _cfkit_imports(BRUTE.read_text()) == ORACLE_TYPES


def _order_dunders(cls) -> list[str]:
    return sorted({"__lt__", "__le__", "__gt__", "__ge__", "__pow__"} & set(vars(cls)))


def test_guard_sees_an_order_dunder():
    class Ordered:
        def __lt__(self, other):
            return False

        def __pow__(self, n):
            return self

    assert _order_dunders(Ordered) == ["__lt__", "__pow__"]


def test_quadext_defines_no_order_and_no_power():
    # exact order is decided only in the test oracle (brute.sign_of)
    from cfkit.scalars import QuadExt

    assert _order_dunders(QuadExt) == []


#: only the complex tower needs mpmath, which scalars._ctx imports on first
#: use; dataclasses, and the inspect it imports, would slow every start
UNLOADED = ("mpmath", "dataclasses", "inspect")


def test_import_leaves_mpmath_unloaded():
    script = f"import sys, cfkit; print([m for m in {UNLOADED!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _cli(tmp_path, *argv):
    """`python -m cfkit --json ARGV` under -X importtime: (report, imported
    top-level modules)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cfkit", "--json", *argv],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return json.loads(proc.stdout), imported


def test_exact_cli_runs_leave_mpmath_unloaded(tmp_path):
    # float_values are rendered from the exact values with integers alone
    specs = {
        "golden": {"mode": "periodic", "a": [1], "b": [1], "period": 1},
        "regular": {"mode": "periodic", "a": [1], "b": [5], "period": 1},
        "sqrt2": {"mode": "generator", "generator": {"name": "sqrt2"}},
        "fib": {"mode": "generator", "generator": {"name": "golden"}},
    }
    for name, data in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    runs = [
        ("classify", "golden.json"),
        ("galois", "regular.json"),
        ("tietze", "sqrt2.json", "--eps", "1e-30"),
        ("eval", "fib.json", "-n", "40"),
        ("reverse", "golden.json"),
        ("continuant", "--oracle", "--a=1,-2", "--b=2,3,5"),
        ("power-iter", "golden.json", "--steps", "5"),
    ]
    for argv in runs:
        report, imported = _cli(tmp_path, *argv)
        assert "cfkit" in imported and not imported.intersection(UNLOADED), argv
        if argv[0] != "reverse":
            assert any(report["float_values"].values()), argv


def test_complex_cli_run_renders_through_mpmath(tmp_path):
    spec = tmp_path / "complex.json"
    spec.write_text(json.dumps({
        "mode": "periodic", "a": [{"re": 1, "im": 0}], "b": [{"re": 1, "im": 1}], "period": 1,
    }), encoding="utf-8")
    report, imported = _cli(tmp_path, "classify", "complex.json")
    assert "mpmath" in imported
    assert report["float_values"]["limit"].endswith("j)")
