import ast
import builtins
import re
import sys
import types
from pathlib import Path

import pytest

import pointset_anchors


def test_every_exported_name_resolves():
    assert len(pointset_anchors.__all__) == len(set(pointset_anchors.__all__))
    for name in pointset_anchors.__all__:
        assert hasattr(pointset_anchors, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pointset_anchors import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pointset_anchors.__all__)


def test_all_lists_every_public_name_but_submodules():
    public = {
        name for name in dir(pointset_anchors)
        if not name.startswith("_")
        and not isinstance(getattr(pointset_anchors, name), types.ModuleType)
    }
    assert public == set(pointset_anchors.__all__) - {"__version__"}
    # Submodules are not exported by name but stay reachable as attributes.
    assert isinstance(pointset_anchors.pipeline, types.ModuleType)
    assert pointset_anchors.pipeline.emit_targets is pointset_anchors.emit_targets


def test_every_imported_name_is_used():
    # No linter runs on the package; this stands in for an unused-import check.
    # The package's relative imports are its re-exports and are exempt.
    for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  and not (path.name == "__init__.py" and node.level)):
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


def test_third_party_imports_are_declared():
    # Every module the package imports from outside the standard library is a
    # dependency in pyproject.toml, and every dependency is imported.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = {re.match(r"[A-Za-z0-9_.-]+", entry).group().lower() for entry in
                tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = set()
    for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pointset_anchors"}
    distributions = {"yaml": "pyyaml"}
    assert {distributions.get(name, name) for name in third_party} == declared


def test_every_parameter_is_read():
    # A parameter the body never reads changes nothing and goes. A name that
    # starts with "_" marks one kept only to share a signature.
    unread = []
    for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            arguments = node.args
            parameters = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                          *filter(None, (arguments.vararg, arguments.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for statement in body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', 'lambda')}({parameter.arg})"
                       for parameter in parameters
                       if not parameter.arg.startswith("_") and parameter.arg not in read]
    assert not unread, unread


def test_every_public_name_has_a_caller():
    # A public name nothing calls goes: each module-level function, class and
    # constant, and each method of a public class, is read somewhere in the
    # package (outside __init__'s re-exports) or imported by the hard-gate
    # tests. The two process entries are called by the interpreter.
    package = Path(pointset_anchors.__file__).parent
    read, public = set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            public += [(f"{path.stem}.{name}", name) for name in names]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                public += [(f"{path.stem}.{node.name}.{method.name}", method.name)
                           for method in node.body if isinstance(method, ast.FunctionDef)]
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    read |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) and node.module.startswith("pointset_anchors")
             for alias in node.names}
    uncalled = [qualified for qualified, name in public
                if not name.startswith("_") and name not in read
                and qualified not in ("cli.main", "cli.run")]
    assert not uncalled, uncalled


def test_only_run_ends_the_process():
    # main([...]) is safe to call in-process: no function but cli.run calls
    # os._exit, sys.exit, exit or quit, or raises SystemExit.
    enders = []
    for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        entry = {id(node) for function in tree.body
                 if path.name == "cli.py" and getattr(function, "name", None) == "run"
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (f"{getattr(func.value, 'id', '')}.{func.attr}"
                        if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
                ends = name in ("os._exit", "sys.exit", "exit", "quit")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                ends = getattr(exc, "id", None) == "SystemExit"
            else:
                continue
            if ends and id(node) not in entry:
                enders.append(f"{path.stem} line {node.lineno}")
    assert not enders, enders


def test_no_string_constant_is_defined_twice():
    # A public name such as MASK_MODE is the one definition of its value;
    # another module binds that name, not a copy of the literal.
    homes: dict[str, set[str]] = {}
    for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                for target in node.targets:
                    if (isinstance(target, ast.Name) and target.id.isupper()
                            and not target.id.startswith("_")):
                        homes.setdefault(node.value.value, set()).add(f"{path.stem}.{target.id}")
    repeated = {value: sorted(names) for value, names in homes.items()
                if len({name.split(".")[0] for name in names}) > 1}
    assert not repeated, repeated



def test_only_two_exception_classes():
    # Callers tell failures apart by message, not by class: a bad outside
    # document raises MalformedDocumentError, and every other failure PointSetError.
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [(f"{path.stem}.{node.name}", node)
               for path in sorted(Path(pointset_anchors.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    found: set[str] = set()
    while True:   # a class is an exception once one of its bases is
        new = {name for name, node in classes if name not in found
               and any(getattr(base, "id", getattr(base, "attr", None)) in exceptions
                       for base in node.bases)}
        if not new:
            break
        found |= new
        exceptions |= {name.split(".")[1] for name in new}
    assert sorted(found) == ["errors.MalformedDocumentError", "errors.PointSetError"]
