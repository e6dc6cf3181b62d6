"""Every ``repro`` import in the source tree resolves.

Type-only imports under ``if TYPE_CHECKING:`` and function-local
imports never run on the paths the rest of the suite exercises, so a
renamed or deleted module can leave them dangling unnoticed.  This
parses each source file and resolves every absolute ``repro`` import
statically: the module must import, and each imported name must be an
attribute or a submodule of it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _resolves(module: str, name: str | None = None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:
        return importlib.util.find_spec(f"{module}.{name}") is not None
    except ImportError:
        return False


def unresolved_imports(source: str, filename: str = "<src>") -> list[str]:
    """``file:line: import`` for each ``repro`` import that does not resolve."""
    bad = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            if node.level or not node.module or not _is_repro(node.module):
                continue
            for alias in node.names:
                if not _resolves(node.module, alias.name):
                    bad.append(
                        f"{filename}:{node.lineno}: "
                        f"from {node.module} import {alias.name}"
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name) and not _resolves(alias.name):
                    bad.append(f"{filename}:{node.lineno}: import {alias.name}")
    return bad


def test_every_repro_import_resolves():
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        bad.extend(unresolved_imports(path.read_text(), rel))
    assert bad == []


def test_checker_flags_dangling_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from repro.obs.tracer import EventTracer\n"
        "if TYPE_CHECKING:\n"
        "    from repro.obs.no_such_module import Tracer\n"
        "def f():\n"
        "    from repro.obs.tracer import NoSuchName\n"
        "    import repro.no_such_package\n"
    )
    assert unresolved_imports(source, "m.py") == [
        "m.py:4: from repro.obs.no_such_module import Tracer",
        "m.py:6: from repro.obs.tracer import NoSuchName",
        "m.py:7: import repro.no_such_package",
    ]
