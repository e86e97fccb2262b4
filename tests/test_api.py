"""Public API surface: every exported name resolves, so a deletion cannot
leave a stale export behind, and every function the benchmark tracer wraps
still exists. Every file the package writes goes through
``cli._write_output``, the shared refusals are formatted in ``model`` alone,
``model._or_inf`` alone reads a float overflow, argparse converts no flag
value, and the tests' oracles import nothing from the package."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import attocell

MODULES = ["attocell", *(f"attocell.{m.name}" for m in pkgutil.iter_modules(attocell.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from attocell import *", namespace)
    assert set(attocell.__all__) <= set(namespace)


def test_bench_tracer_targets_resolve(monkeypatch):
    # bench/tracing.py wraps these by name; a rename would otherwise show
    # only when the benchmark runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{home}.{attr}" for home, attr, *_ in tracing._TARGETS
               if not hasattr(importlib.import_module(home), attr)]
    assert missing == []
    # the parameters that _site_draws_hook binds
    parameters = inspect.signature(attocell.empirical_coverage_curves).parameters
    assert {"geometry", "trunc", "trials_per_node"} <= set(parameters)


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open(file, mode)`` or ``path.open(mode)`` call whose mode may
    write: it holds w, a or x, or is not a string literal."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        # path.open(mode), but io.open(file, mode) and os.open(file, flags)
        module = isinstance(func.value, ast.Name) and func.value.id in ("io", "os")
        position = 1 if module else 0
    else:
        return False
    modes = [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
    modes += call.args[position : position + 1]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax")


def _writers(tree: ast.AST):
    """(function, line) of every call in ``tree`` that writes a file."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                (isinstance(child.func, ast.Attribute) and child.func.attr in ("write_text", "write_bytes"))
                or _opens_for_writing(child)
            ):
                yield function, child.lineno
            yield from walk(child, function)

    yield from walk(tree, None)


def test_one_writer():
    # a second writer could truncate an existing output in place, which
    # costs an ext4 flush per file on every rerun into the same --out
    found = []
    for path in sorted(Path(attocell.__file__).parent.glob("*.py")):
        for function, line in _writers(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) != ("cli.py", "_write_output"):
                found.append(f"{path.name}:{line} in {function}")
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "open(p, 'w')",
        "open(p, mode='a', encoding='utf-8')",
        "open(p, 'xb')",
        "open(p, m)",
        "p.open('w')",
        "p.write_text('x')",
        "p.write_bytes(b'x')",
        "io.open(p, 'w+')",
    ],
)
def test_writer_guard_sees(source):
    assert list(_writers(ast.parse(source))) == [(None, 1)]


@pytest.mark.parametrize("source", ["open(p)", "open(p, 'rb')", "p.open()", "p.read_text()", "io.open(p, 'r')"])
def test_writer_guard_ignores_reads(source):
    assert list(_writers(ast.parse(source))) == []


def _package_imports(tree: ast.AST):
    """Line of every ``import attocell...`` or ``from attocell... import`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == "attocell" or m.startswith("attocell.") for m in modules):
            yield node.lineno


def test_oracles_stay_independent():
    # an oracle that borrows the code it checks agrees with it by construction
    path = Path(__file__).with_name("oracles.py")
    assert list(_package_imports(ast.parse(path.read_text(encoding="utf-8")))) == []


@pytest.mark.parametrize(
    "source", ["import attocell", "import math, attocell.model as m", "from attocell.coverage import eta"]
)
def test_oracle_guard_sees(source):
    assert list(_package_imports(ast.parse(source))) == [1]



SHARED_REFUSALS = (
    "each coordinate and its square must be finite",
    "must be an integer >=",
    "(z^2 + h^2)^(-e) outside the float range",
)


def _refusal_texts(tree: ast.AST):
    """(text, line) of every string constant in ``tree``, f-string parts
    included, that holds one of ``SHARED_REFUSALS``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for text in SHARED_REFUSALS:
                if text in node.value:
                    yield text, node.lineno


def test_one_home_per_refusal():
    # a second copy of a check drifts from the first: the position, integer
    # and tagged-term checks live in model.position_xy, model._check_integer
    # and model._tagged_term
    found = []
    for path in sorted(Path(attocell.__file__).parent.glob("*.py")):
        for text, line in _refusal_texts(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "model.py":
                found.append(f"{path.name}:{line} formats {text!r}")
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        'raise ValueError(f"position ({x!r}, {y!r}): each coordinate and its square must be finite")',
        'raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")',
        'message = "j must be an integer >= 0"',
        'raise ValueError(f"geometry.height = {h!r} puts the tagged LED\'s (z^2 + h^2)^(-e) outside the float range")',
    ],
)
def test_refusal_guard_sees(source):
    assert len(list(_refusal_texts(ast.parse(source)))) == 1


# An except that catches these, or an errstate or seterr call, reads a float
# overflow; outside model._or_inf, only these three may hold one: an integer
# check's int(inf), math.gamma's overflow turned into gamma's own ValueError,
# and the command line's last-resort net
FLOAT_ERROR_NAMES = {"OverflowError", "ZeroDivisionError", "ArithmeticError", "Exception", "BaseException"}
FLOAT_ERROR_HOMES = {
    ("model.py", "_or_inf"), ("model.py", "_check_integer"), ("specfun.py", "gamma"), ("cli.py", "main")
}


def _float_error_readers(tree: ast.AST):
    """(function, line) of every bare ``except`` in ``tree``, every one naming
    one of ``FLOAT_ERROR_NAMES``, and every ``errstate`` or ``seterr`` call."""

    def names(node):
        items = node.elts if isinstance(node, ast.Tuple) else [node]
        return {item.attr if isinstance(item, ast.Attribute) else getattr(item, "id", None) for item in items}

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and (child.type is None or names(child.type) & FLOAT_ERROR_NAMES):
                yield function, child.lineno
            if isinstance(child, ast.Call) and names(child.func) & {"errstate", "seterr"}:
                yield function, child.lineno
            yield from walk(child, function)

    yield from walk(tree, None)


def test_one_home_for_float_overflow():
    # a second copy of the rule drifts from the first: one missed the numpy
    # warning, another the bare OverflowError
    found = []
    for path in sorted(Path(attocell.__file__).parent.glob("*.py")):
        for function, line in _float_error_readers(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) not in FLOAT_ERROR_HOMES:
                found.append(f"{path.name}:{line} in {function}")
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    x\nexcept OverflowError:\n    pass",
        "try:\n    x\nexcept (TypeError, ZeroDivisionError) as exc:\n    pass",
        "try:\n    x\nexcept ArithmeticError:\n    pass",
        "try:\n    x\nexcept builtins.OverflowError:\n    pass",
        "try:\n    x\nexcept Exception:\n    pass",
        "try:\n    x\nexcept:\n    pass",
        "with np.errstate(over='ignore'):\n    x",
        "with numpy.errstate(divide='ignore'), open(p):\n    x",
        "old = np.seterr(over='ignore')",
    ],
)
def test_float_error_guard_sees(source):
    assert len(list(_float_error_readers(ast.parse(source)))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    x\nexcept ValueError:\n    pass",
        "try:\n    x\nexcept (TypeError, KeyError):\n    pass",
        "np.isfinite(x)",
    ],
)
def test_float_error_guard_ignores_others(source):
    assert list(_float_error_readers(ast.parse(source))) == []


def _typed_flags(tree: ast.AST):
    """Line of every ``add_argument`` call in ``tree`` that passes ``type=``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and any(kw.arg == "type" for kw in node.keywords)
        ):
            yield node.lineno


def test_no_flag_typed_by_argparse():
    # a type= reads a flag apart from the settings' parsers, and refuses a
    # bad value with argparse's usage block in place of one error: line
    path = Path(attocell.__file__).parent / "cli.py"
    assert list(_typed_flags(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_typed_flag_guard_sees():
    assert list(_typed_flags(ast.parse("sp.add_argument('--height', type=float, help='h')"))) == [1]
