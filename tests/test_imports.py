"""Every name a package module imports is referenced in that module, every
public name, private helper, method and property has a caller in the
package, every dataclass field is read in the package, no module converts
a JSON field by hand, and every name the benchmark tracer rebinds is bound.

There is no linter in the toolchain, so this stdlib-ast check stands in for
the unused-import rule.  __init__.py is exempt: it imports to re-export.
"""

import ast
import importlib.util
import pathlib

import pytest

import mhect
from mhect import batch_reactor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mhect"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_are_found():
    assert "certify.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: unused imports (name: line) {unused}"


def referenced_names(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_package_caller():
    used = set().union(*(referenced_names(ast.parse((SRC / m).read_text(), filename=m))
                         for m in MODULES))
    public = set(mhect.__all__) - {"errors", "__version__"}
    assert not public - used, \
        f"public names no package module references: {sorted(public - used)}"


# methods and properties that only callers outside the package use, each with its reason
OUTSIDE_ONLY = {
    "SplitMix64.uniform": "the scalar reference stream that test_rng and the acceptance "
                          "recipes draw from",
}


def helpers_and_methods(tree):
    """(qualified name, name) of each module-level private function and of
    each method and property of a module-level class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f.name) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))


def test_every_helper_and_method_has_a_package_caller():
    trees = [ast.parse((SRC / m).read_text(), filename=m) for m in MODULES]
    used = set().union(*map(referenced_names, trees))
    dead = sorted(q for tree in trees for q, name in helpers_and_methods(tree)
                  if name not in used and q not in OUTSIDE_ONLY)
    assert not dead, f"private helpers, methods or properties nothing references: {dead}"


def test_helper_rule_catches_an_unreferenced_helper():
    tree = ast.parse("def _dead(): pass\nclass C:\n    def m(self): pass\n"
                     "    def __init__(self): pass\ndef public(): pass")
    assert list(helpers_and_methods(tree)) == [("_dead", "_dead"), ("C.m", "m")]


# dataclass fields that only readers outside the package read, each with its reason
UNREAD_FIELDS = {
    "GridSpec.affinity_asserted": "the benchmark workloads pass it; it goes once they stop",
    "MheSolution.chi_star": "the benchmark workloads and the tests read it; it equals "
                            "x_star.states[0] bit for bit and goes once the workloads stop",
    "SolverStats.trials": "the benchmark counts it as mhe.lm_trials; the package only "
                          "increments it",
}


def is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def dataclass_fields(tree):
    """(qualified name, name) of each annotated field of a module-level
    class decorated with dataclass or dataclass(...)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                is_name(d.func if isinstance(d, ast.Call) else d, "dataclass")
                for d in node.decorator_list):
            yield from ((f"{node.name}.{f.target.id}", f.target.id) for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))


def read_names(tree):
    """Names read as an attribute, or by getattr with a literal name;
    an attribute that is only assigned or incremented is not read."""
    return ({n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            | {n.args[1].value for n in ast.walk(tree)
               if isinstance(n, ast.Call) and is_name(n.func, "getattr")
               and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)})


def test_every_dataclass_field_is_read_in_the_package():
    trees = [ast.parse((SRC / m).read_text(), filename=m) for m in MODULES]
    read = set().union(*map(read_names, trees))
    unread = sorted(q for tree in trees for q, name in dataclass_fields(tree)
                    if name not in read and q not in UNREAD_FIELDS)
    assert not unread, f"dataclass fields nothing in the package reads: {unread}"


def test_field_rule_catches_an_unread_field():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int = 0\n"
                     "    c = 1\n@dataclass\nclass B:\n    d: float\nclass C:\n    e: int\n"
                     "x.a += 1\nx.d = 2\ny = getattr(x, 'b') + x.c")
    fields = list(dataclass_fields(tree))
    assert fields == [("A.a", "a"), ("A.b", "b"), ("B.d", "d")]
    assert [q for q, name in fields if name not in read_names(tree)] == ["A.a", "B.d"]


CONVERTERS = {"float", "int", "bool", "str"}
NP_CONVERTERS = {"array", "asarray"}


def hand_conversions(tree):
    """Lines that call a converter on d["key"]: a field read that bypasses
    sysmodel._numeric, which names the field when the value is malformed."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not ((isinstance(fn, ast.Name) and fn.id in CONVERTERS)
                or (isinstance(fn, ast.Attribute) and fn.attr in NP_CONVERTERS
                    and isinstance(fn.value, ast.Name) and fn.value.id == "np")):
            continue
        if any(isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Constant)
               and isinstance(a.slice.value, str) for a in node.args):
            lines.append(node.lineno)
    return sorted(lines)


def test_hand_conversion_rule_catches_a_field_read():
    tree = ast.parse('x = float(d["lambda"]) + float(v[0])\ny = np.array(d["P"], dtype=float)')
    assert hand_conversions(tree) == [1, 2]


@pytest.mark.parametrize("module", MODULES)
def test_fields_are_read_through_numeric(module):
    lines = hand_conversions(ast.parse((SRC / module).read_text(), filename=module))
    assert not lines, f"{module}: hand-converted field reads at lines {lines}; " \
        "read them with sysmodel._numeric"


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracing.py rebinds package names by attribute, so unbinding
    # or renaming one of them breaks the benchmark's traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(models=[batch_reactor()])
    patched = list(tracer._patches)
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
