"""Every source and test file parses as Python 3.10, the oldest version
`pyproject.toml` allows, whatever interpreter runs the suite, and the
library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = sorted([*(ROOT / "src" / "spindim").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert ROOT / "src" / "spindim" / "cli.py" in files
    assert Path(__file__).resolve() in files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`
    files = sorted((ROOT / "src" / "spindim").glob("*.py"))
    assert ROOT / "src" / "spindim" / "qform2.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    f"{path.name} imports {name}")
