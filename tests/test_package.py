import ast
import pathlib
import sys

import arir


def test_package_imports_only_the_standard_library():
    sources = sorted(pathlib.Path(arir.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name} imports {name}"
