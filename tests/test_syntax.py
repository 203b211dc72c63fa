"""Every source and test file parses as Python 3.10, the oldest version
`pyproject.toml` allows, whatever interpreter runs the suite."""

import ast
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
