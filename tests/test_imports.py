"""Guards on the package source: no module reaches into another module's
private names, no module keeps a private name that it never reads, no
function takes a parameter that its body never reads, no dataclass keeps a
field that no module reads, no module but model decides by hand whether a
value is a bool, every call of the builtin open sits in a try that catches
OSError, no object is written to after it is built, and the package
re-exports exactly the public names its modules declare, each declared
once: in its module's literal __all__ list.

Each source file is parsed with ast, so the checks need no import side
effects.  A private name is one with a single leading underscore; dunder
names such as __version__ are public.
"""

import ast
import importlib
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


def test_package_all_matches_module_all():
    # A public name leaves the package and its module together: a name that
    # a module's __all__ declares is re-exported, and a re-exported name
    # defined in a module with an __all__ is declared there.  cli keeps its
    # own surface, and __main__ runs the program when imported.
    unresolved = [name for name in frustra_gp.__all__ if not hasattr(frustra_gp, name)]
    assert unresolved == []
    exported = set(frustra_gp.__all__)
    declared = {}
    for path in SOURCES:
        if path.stem not in {"__init__", "__main__", "cli"}:
            module = importlib.import_module(f"{frustra_gp.__name__}.{path.stem}")
            declared[module.__name__] = set(getattr(module, "__all__", ()))
    not_reexported = {
        module: sorted(names - exported) for module, names in declared.items() if names - exported
    }
    assert not_reexported == {}
    undeclared = []
    for name in frustra_gp.__all__:
        home = getattr(getattr(frustra_gp, name), "__module__", None)
        if declared.get(home) and name not in declared[home]:
            undeclared.append(name)
    assert undeclared == []


def _literal_all(tree: ast.Module) -> bool:
    """Whether the module binds __all__ once, at top level, to a list of strings."""
    bindings = [
        node
        for node in tree.body
        if any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in getattr(node, "targets", [getattr(node, "target", None)])
        )
    ]
    return (
        len(bindings) == 1
        and isinstance(bindings[0], ast.Assign)
        and isinstance(bindings[0].value, ast.List)
        and all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in bindings[0].value.elts
        )
    )


def _second_declarations(init: ast.Module, modules: dict[str, ast.Module]) -> list[str]:
    """Imports by which the package's __init__ would declare a name a second time.

    A public name is declared once, in its module's __all__.  So __init__
    takes a sibling only as `from .x import *`, which re-exports that list,
    or as `from . import x`, to add x.__all__ to its own; and each sibling
    it star-imports binds __all__ to a literal list, which static checkers
    can read.  `modules` maps sibling names to their parsed source.
    """
    found = []
    for node in ast.walk(init):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = _sibling(node.module, node.level)
        if source is None:
            continue
        names = ", ".join(
            alias.name + (f" as {alias.asname}" if alias.asname else "") for alias in node.names
        )
        if source == "":
            if not all(a.name in SIBLINGS and a.asname is None for a in node.names):
                found.append(f"line {node.lineno}: from . import {names}")
        elif names != "*":
            found.append(f"line {node.lineno}: from {source} import {names}")
        elif source not in modules or not _literal_all(modules[source]):
            found.append(f"line {node.lineno}: {source} has no literal __all__ list")
    return found


def test_package_declares_each_public_name_once():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _second_declarations(trees.pop("__init__"), trees) == []


def test_guard_flags_second_declarations():
    init = (
        "from . import dynamics, phase\n"
        "from .dynamics import *\n"
        "from .phase import gp_closed_form, polar_track\n"
        "from frustra_gp.errors import ConfigError as Refused\n"
        "from .model import *\n"
        "from .oracle import *\n"
        "from .errors import *\n"
        "from . import dynamics as dyn, __version__\n"
        "from numpy import *\n"
    )
    modules = {
        "dynamics": "__all__ = ['TimeGrid', 'bloch_trajectory']\n",
        "model": "__all__ = sorted(['SystemConfig'])\n",
        "oracle": "__all__ = ['evolve_reduced']\n__all__ += ['oracle_trajectory']\n",
        "errors": "NAMES = ['ConfigError']\n",
    }
    trees = {name: ast.parse(text) for name, text in modules.items()}
    assert _second_declarations(ast.parse(init), trees) == [
        "line 3: from phase import gp_closed_form, polar_track",
        "line 4: from errors import ConfigError as Refused",
        "line 5: model has no literal __all__ list",
        "line 6: oracle has no literal __all__ list",
        "line 7: errors has no literal __all__ list",
        "line 8: from . import dynamics as dyn, __version__",
    ]


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


def _unread_parameters(tree: ast.Module) -> list[str]:
    """Parameters that their function's body (nested scopes included) never reads.

    `self` and `cls` are exempt, and so are dunder methods, whose signatures
    are fixed by the protocol they implement (an immutability guard's
    `__setattr__` reads none of its arguments).
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for inner in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Store):
                read.add(inner.id)
            elif isinstance(inner, ast.AugAssign) and isinstance(inner.target, ast.Name):
                read.add(inner.target.id)
        found += [
            f"line {node.lineno}: {name}({param.arg})"
            for param in params
            if param.arg not in read and param.arg not in ("self", "cls")
        ]
    return found


def test_no_unread_parameters():
    offenders = {
        path.name: unread
        for path in SOURCES
        if (unread := _unread_parameters(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}


def test_guard_flags_unread_parameters():
    source = (
        "def handler(p, run_cfg):\n"
        "    return p['out']\n"
        "def closure(a, b, *rest, c, **extra):\n"
        "    def inner():\n"
        "        return a + len(rest) + len(extra)\n"
        "    b += 1\n"
        "    return inner\n"
        "class Frozen:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError\n"
        "    def method(self, unused):\n"
        "        return 0\n"
        "shadowed = lambda x, y: (y := 1)\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        "line 1: handler(run_cfg)",
        "line 3: closure(c)",
        "line 11: method(unused)",
        "line 13: <lambda>(x)",
        "line 13: <lambda>(y)",
    ]


def _unread_privates(tree: ast.Module) -> list[str]:
    """Module-level private names that nothing in the module reads.

    A private name is private to its module, so one that the module itself
    never reads is dead: a table or a header that a merged or derived one
    replaced and that was left behind.
    """
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
        else:
            continue
        for name in filter(_private, names):
            defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [f"line {lineno}: {name}" for name, lineno in defined.items() if name not in read]


def test_no_unread_private_names():
    offenders = {
        path.name: unread
        for path in SOURCES
        if (unread := _unread_privates(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}


def test_guard_flags_unread_private_names():
    source = (
        "import numpy as _np\n"
        "from .model import sector_weights as _weights\n"
        "_HELP = {'a': 'b'}\n"
        "_TABLE: dict = {}\n"
        "_A, (_B, PUBLIC) = 1, (2, 3)\n"
        "__version__ = '1'\n"
        "def _used():\n"
        "    return _TABLE, _B\n"
        "def _dead():\n"
        "    return 0\n"
        "class _Gone:\n"
        "    pass\n"
        "USE = _used() and _np\n"
    )
    assert _unread_privates(ast.parse(source)) == [
        "line 2: _weights",
        "line 3: _HELP",
        "line 5: _A",
        "line 9: _dead",
        "line 11: _Gone",
    ]


# The CLI writes these records whole through dataclasses.asdict, so each of
# their fields reaches the output without its name being read.
_WHOLE_RECORDS = {"GpResult", "GpDiagnostics", "StrategySummary"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _unread_fields(trees: list[ast.Module]) -> list[str]:
    """Dataclass fields, as Class.field, that no module loads as an attribute.

    A stored value that nothing reads is dead weight: every instance carries
    it, and every hand-built instance has to supply it.  A field counts as
    read when any module loads an attribute of its name, from any object, so
    the guard misses a field that shares its name with one that is read:
    BlochTrajectory.config escaped it as long as GpSurface.config was read.
    The records in _WHOLE_RECORDS are exempt.
    """
    fields = []
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.ClassDef)
                and _is_dataclass(node)
                and node.name not in _WHOLE_RECORDS
            ):
                fields += [
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return [f"{owner}.{name}" for owner, name in fields if name not in read]


def test_no_unread_dataclass_fields():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    assert _unread_fields(trees) == []


def test_guard_flags_unread_dataclass_fields():
    records = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Track:\n"
        "    grid: int\n"
        "    R: float\n"
        "    label: str = ''\n"
        "@dataclasses.dataclass\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "@dataclass\n"
        "class GpResult:\n"
        "    gamma: float\n"
        "class Plain:\n"
        "    unused: int\n"
    )
    readers = (
        "def use(track, pair):\n"
        "    pair.right = track.grid\n"
        "    return track.label.upper()\n"
    )
    trees = [ast.parse(records), ast.parse(readers)]
    assert _unread_fields(trees) == ["Track.R", "Pair.left", "Pair.right"]
    assert _unread_fields(trees[:1]) == [
        "Track.grid", "Track.R", "Track.label", "Pair.left", "Pair.right"
    ]


def _bool_tests(tree: ast.Module) -> list[str]:
    """isinstance calls whose class argument is, or lists, bool.

    Refusing a bool where a number or a count is due is model.check_real's
    and model.check_count's job; a module with its own isinstance(..., bool)
    has grown a local copy of that rule, which can drift from it.
    """
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        classes = node.args[1]
        names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
        if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_only_model_tests_for_bool():
    offenders = {
        path.name: tests
        for path in SOURCES
        if path.stem != "model"
        and (tests := _bool_tests(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}
    model = next(path for path in SOURCES if path.stem == "model")
    assert _bool_tests(ast.parse(model.read_text()))  # the one rule lives there


def test_guard_flags_bool_tests():
    source = (
        "def count(n):\n"
        "    if not isinstance(n, int) or isinstance(n, bool):\n"
        "        raise ValueError\n"
        "ok = isinstance(x, (int, float)) and not isinstance(x, (bool, str))\n"
        "fine = isinstance(x, float) or type(x) is bool or isinstance(x, boolean)\n"
    )
    assert _bool_tests(ast.parse(source)) == [
        "line 2: isinstance(n, bool)",
        "line 4: isinstance(x, (bool, str))",
    ]


def _catches_oserror(node: ast.Try) -> bool:
    for handler in node.handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if any(isinstance(t, ast.Name) and t.id == "OSError" for t in types):
            return True
    return False


def _unguarded_opens(tree: ast.Module) -> list[str]:
    """Calls of the builtin open outside the body of a try that catches OSError.

    A path that cannot be opened is a caller's mistake, reported as one
    error line, not a traceback.  A function body starts unguarded: a try
    around the definition does not cover its calls.
    """
    found = []

    def visit(node, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            guarded = False
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and not guarded
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Try):
            for stmt in node.body:
                visit(stmt, guarded or _catches_oserror(node))
            for part in (*node.handlers, *node.orelse, *node.finalbody):
                visit(part, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return found


def test_every_open_is_guarded_against_oserror():
    offenders = {
        path.name: opens
        for path in SOURCES
        if (opens := _unguarded_opens(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}


def test_guard_flags_unguarded_opens():
    source = (
        "def read(path):\n"
        "    try:\n"
        "        with open(path) as fh:\n"
        "            return fh.read()\n"
        "    except (OSError, UnicodeDecodeError):\n"
        "        return open(path + '.bak').read()\n"
        "def write(path):\n"
        "    try:\n"
        "        open(path, 'w').close()\n"
        "    except ValueError:\n"
        "        pass\n"
        "try:\n"
        "    def later(path):\n"
        "        return open(path)\n"
        "    fd = os.open(path, 0)\n"
        "except OSError:\n"
        "    pass\n"
    )
    assert _unguarded_opens(ast.parse(source)) == [
        "line 6: open(path + '.bak')",
        "line 9: open(path, 'w')",
        "line 14: open(path)",
    ]


# The constructors in which a frozen record may set its own attributes.
_BUILDERS = {"__init__", "__post_init__"}


def _late_writes(tree: ast.Module) -> list[str]:
    """object.__setattr__ and vars(...).update calls outside __init__ and
    __post_init__.

    A frozen record is checked and derived once, when it is built; a write
    from any other function (the innermost one around the call counts)
    fills or changes it after the fact, as a lazy cache would.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            setattr_call = (
                node.func.attr == "__setattr__"
                and isinstance(owner, ast.Name)
                and owner.id == "object"
            )
            vars_update = (
                node.func.attr == "update"
                and isinstance(owner, ast.Call)
                and isinstance(owner.func, ast.Name)
                and owner.func.id == "vars"
            )
            if (setattr_call or vars_update) and function not in _BUILDERS:
                found.append(f"line {node.lineno}: {ast.unparse(node.func)} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_records_are_written_only_while_built():
    offenders = {
        path.name: writes
        for path in SOURCES
        if (writes := _late_writes(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}


def test_guard_flags_late_writes():
    source = (
        "class Track:\n"
        "    def __init__(self, a):\n"
        "        vars(self).update(a=a)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'b', 1)\n"
        "    def cached(self):\n"
        "        object.__setattr__(self, '_kept', 1)\n"
        "        return vars(self).get('_kept'), setattr(self, 'c', 2)\n"
        "    def __init_subclass__(cls):\n"
        "        vars(cls).update(d=3)\n"
        "def build(track):\n"
        "    def __init__(other):\n"
        "        vars(other).update(e=4)\n"
        "    vars(track).update(f=5)\n"
        "    return lambda: object.__setattr__(track, 'g', 6)\n"
        "object.__setattr__(Track, 'h', 7)\n"
        "self.__dict__.update(i=8)\n"
    )
    assert _late_writes(ast.parse(source)) == [
        "line 7: object.__setattr__ in cached",
        "line 10: vars(cls).update in __init_subclass__",
        "line 14: vars(track).update in build",
        "line 15: object.__setattr__ in <lambda>",
        "line 16: object.__setattr__ in <module>",
    ]
