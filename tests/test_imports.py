"""Guard: no module of the package reaches into another module's private names.

Each source file is parsed with ast, so the check needs no import side
effects.  A private name is one with a single leading underscore; dunder
names such as __version__ are public.
"""

import ast
from pathlib import Path

import frustra_gp

SOURCES = sorted(Path(frustra_gp.__file__).parent.glob("*.py"))
SIBLINGS = {path.stem for path in SOURCES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    """Sibling module named by an import, or None for anything else."""
    if level == 1 and module is None:
        return ""  # from . import mod
    if level == 1 and module in SIBLINGS:
        return module
    if level == 0 and module is not None:
        head, _, rest = module.partition(".")
        if head == frustra_gp.__name__ and (rest in SIBLINGS or not rest):
            return rest
    return None


def _private_uses(tree: ast.Module) -> list[str]:
    found = []
    module_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _sibling(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in SIBLINGS:
                    module_names.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"line {node.lineno}: from {source} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == frustra_gp.__name__ and rest in SIBLINGS and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_private_imports_across_modules():
    assert {"dynamics", "experiments", "phase", "cli"} <= SIBLINGS
    offenders = {
        path.name: uses
        for path in SOURCES
        if (uses := _private_uses(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}


def test_guard_flags_private_imports_and_attribute_reads():
    source = (
        "from .phase import _JUMP_LIMIT, R_TOL\n"
        "from frustra_gp.dynamics import _sector_tables\n"
        "from . import dynamics as dyn\n"
        "x = dyn._CHUNK_ELEMENTS + dyn.TimeGrid.__name__.__len__()\n"
        "from .model import __doc__\n"
    )
    assert _private_uses(ast.parse(source)) == [
        "line 1: from phase import _JUMP_LIMIT",
        "line 2: from dynamics import _sector_tables",
        "line 4: dyn._CHUNK_ELEMENTS",
    ]
