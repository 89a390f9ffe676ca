"""The package depends on the Python standard library alone."""

import ast
import pathlib
import sys


def test_the_package_imports_only_the_standard_library():
    sources = sorted((pathlib.Path(__file__).parent.parent / "src" / "goelab").glob("*.py"))
    assert len(sources) >= 14
    allowed = sys.stdlib_module_names | {"goelab"}
    for path in sources:
        names = []
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append(node.module)
        foreign = sorted(n for n in names if n.split(".")[0] not in allowed)
        assert not foreign, f"{path.name} imports {foreign}"


def test_every_import_is_at_module_level():
    # no import cycle needs a deferred import, so every dependency shows at the top
    sources = sorted((pathlib.Path(__file__).parent.parent / "src" / "goelab").glob("*.py"))
    nested = []
    for path in sources:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not nested, f"imports inside functions at {sorted(set(nested))}"
