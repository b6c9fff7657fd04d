"""Names README lists as removed from the API stay removed, README's library
example runs, every threshold in ``Tolerances`` is still read, and only the
CLI touches files.

The list is the first column of README's "Names removed from the API"
table, so a name added there is guarded here without a test edit.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import odeident
from odeident.config import Tolerances

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(odeident.__file__).resolve().parent
MISSING = object()
MODULES = [odeident] + [importlib.import_module(f"odeident.{info.name}")
                        for info in pkgutil.iter_modules(odeident.__path__)]


def removed_names():
    """Every backticked name in the first column of the removed-names table."""
    section = README.read_text().split("### Names removed from the API", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)]


def lookup(dotted):
    """The object a dotted name reaches from odeident or one of its modules,
    or MISSING.

    A class attribute counts only when a class in the package's own hierarchy
    defines it, so a name every class has (``__call__`` from ``type``) does not.
    """
    head, *rest = dotted.split(".")
    found = [vars(module)[head] for module in MODULES if head in vars(module)]
    if not found:
        return MISSING
    obj = found[0]
    for name in rest:
        if inspect.isclass(obj):
            if not any(name in vars(cls) for cls in obj.__mro__ if cls is not object):
                return MISSING
        elif not hasattr(obj, name):
            return MISSING
        obj = getattr(obj, name)
    return obj


def public_callables():
    """Functions and classes defined in the package, and their methods."""
    seen = {}
    for module in MODULES:
        for obj in vars(module).values():
            if getattr(obj, "__module__", "").startswith("odeident") and callable(obj):
                seen[id(obj)] = obj
                if inspect.isclass(obj):
                    for name, member in vars(obj).items():
                        if isinstance(member, (staticmethod, classmethod)) \
                                or inspect.isfunction(member):
                            seen[id(member)] = getattr(obj, name)
    return list(seen.values())


def accepts(func, arg):
    try:
        return arg in inspect.signature(func).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def test_table_is_read():
    assert {"CallbackSystem", "rk4_fixed", "certify_radius(gamma_raw=)"} <= set(removed_names())


@pytest.mark.parametrize("name", removed_names())
def test_removed_name_stays_removed(name):
    call = re.fullmatch(r"([\w.]*)\((.*)\)", name)
    if call:  # owner(arg=, ...): the owner, if it is still there, takes none of them
        owner = lookup(call.group(1))
        args = [a.strip().rstrip("=") for a in call.group(2).split(",")]
        assert owner is MISSING or not any(accepts(owner, a) for a in args)
    elif name.endswith("="):  # an argument no function takes
        assert not any(accepts(func, name[:-1]) for func in public_callables())
    else:
        assert lookup(name) is MISSING


def test_library_example_runs():
    """README's one python block under "## Library" runs as written, so a
    removed name cannot stay in the docs."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_threshold_is_read(field):
    """A field that no module reads as DEFAULTS.<field> is a dead knob."""
    use = re.compile(rf"\bDEFAULTS\.{field}\b")
    assert any(use.search(path.read_text())
               for path in SOURCES.glob("*.py") if path.name != "config.py")


FILE_MODULES = {"json", "pathlib"}
FILE_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


@pytest.mark.parametrize("path", sorted(p.name for p in SOURCES.glob("*.py")
                                        if p.name != "cli.py"))
def test_only_the_cli_touches_files(path):
    """The library takes and returns arrays; reading and writing files is the CLI's."""
    found = []
    for node in ast.walk(ast.parse((SOURCES / path).read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in FILE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] in FILE_MODULES:
            found.append(node.module)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" \
                    or isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
                found.append(ast.unparse(func))
    assert found == []
