"""Every exported name has a caller outside the tests.

A name in ``repro.__all__`` or in a subpackage's ``__all__`` must be
referenced as code (a name token, not a comment or a docstring) somewhere
in ``src/`` other than its own definition and the ``__init__`` re-exports,
or in ``examples/`` or ``benchmarks/``.  The few names that only the tests
read are oracles and are allow-listed below, each with its reason.
"""

import importlib
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Exported names whose only readers are tests, and why they stay.
ORACLES = {
    "__version__": "package metadata, read by packaging tools",
    "shannon_entropy": "Equation (5) on a distance list: the scalar oracle "
                       "of the columnar pivot scoring",
    "PAPER_GRID": "Table 5 at the paper's own scale: the reference the "
                  "scaled bench grid is checked against",
}


def _exporting_modules():
    yield repro
    for info in pkgutil.iter_modules(repro.__path__):
        if info.ispkg:
            yield importlib.import_module(f"repro.{info.name}")


def _name_tokens(path):
    """``(line, name)`` of every NAME token in one Python file."""
    source = path.read_text()
    return [(token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.NAME]


def _definition_span(name, module):
    """``(file, first line, last line)`` of the name's own definition."""
    obj = getattr(module, name)
    try:
        path = Path(inspect.getsourcefile(obj)).resolve()
        lines, first = inspect.getsourcelines(obj)
        return path, first, first + len(lines) - 1
    except TypeError:  # a constant: find its assignment
        pattern = re.compile(rf"^{re.escape(name)}\s*[:=]", re.MULTILINE)
        for path in SRC.rglob("*.py"):
            match = pattern.search(path.read_text())
            if match:
                line = path.read_text().count("\n", 0, match.start()) + 1
                return path.resolve(), line, line
    return None, 0, 0


def _callers():
    """Every code file that counts as a caller, with its name tokens."""
    files = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for directory in ("examples", "benchmarks"):
        files.extend((ROOT / directory).rglob("*.py"))
    return {path.resolve(): _name_tokens(path) for path in files}


def test_every_exported_name_has_a_caller_outside_the_tests():
    callers = _callers()
    unreferenced = []
    for module in _exporting_modules():
        for name in module.__all__:
            if name in ORACLES:
                continue
            own_file, first, last = _definition_span(name, module)
            found = any(
                token == name and not (path == own_file and first <= line <= last)
                for path, tokens in callers.items()
                for line, token in tokens)
            if not found:
                unreferenced.append(f"{module.__name__}.{name}")
    assert unreferenced == []


def test_every_oracle_is_still_exported():
    exported = {name for module in _exporting_modules()
                for name in module.__all__}
    assert set(ORACLES) <= exported
