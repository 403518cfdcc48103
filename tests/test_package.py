import ast
import inspect
import pathlib
import sys

import pytest

import crbmkit


def test_public_names_are_the_defining_modules_objects():
    for name in crbmkit.__all__:
        value = getattr(crbmkit, name)
        home = value.__module__
        assert home.startswith("crbmkit.")
        assert getattr(sys.modules[home], name) is value


def test_dir_lists_every_public_name():
    assert set(crbmkit.__all__) <= set(dir(crbmkit))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crbmkit.no_such_name
    assert not hasattr(crbmkit, "no_such_name")
    # a submodule is not a table name, and still imports
    from crbmkit import bitspace
    assert bitspace.__name__ == "crbmkit.bitspace"


SRC = pathlib.Path(crbmkit.__file__).parent


def _referenced_names(path: pathlib.Path) -> set[str]:
    """The names a module reads or imports, and the attributes it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_exports_is_the_only_list_of_public_names():
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        assigned = {target.id for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert "__all__" not in assigned, path.name


def test_every_exported_function_has_a_library_caller():
    refs = {path.stem: _referenced_names(path) for path in SRC.glob("*.py")}
    orphans = [name for name in crbmkit.__all__
               if not inspect.isclass(getattr(crbmkit, name))
               and not any(name in names for module, names in refs.items()
                           if module not in (crbmkit._HOME[name], "__init__"))]
    assert orphans == []


def test_cli_calls_only_public_names():
    tree = ast.parse((SRC / "cli.py").read_text())
    called = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
    assert called and called <= set(crbmkit._HOME)
    # and it imports no library function past ``_cli``: from the package
    # only the errors and the registry it resolves names by
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    assert imported and all(
        module == "errors" or (module, name) == (None, "_HOME")
        for module, name in imported), imported
