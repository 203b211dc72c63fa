"""Every source and test file parses as Python 3.10, the oldest version
`pyproject.toml` allows, whatever interpreter runs the suite; the
library imports nothing outside the standard library, imports json only
inside a function, sets record fields only in `_record.py`, runs no
generated code and has no assert statement (`python -O` drops them);
no module reads argv with argparse, bad CLI input takes one route to
exit 2, and each subcommand is a function of the layer it drives."""

import ast
import builtins
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    # with no warning either: from Python 3.12 on, an invalid escape
    # such as "\[" in a regex literal is only a SyntaxWarning
    files = sorted([*(ROOT / "src" / "spindim").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert ROOT / "src" / "spindim" / "cli.py" in files
    assert Path(__file__).resolve() in files
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


def test_the_library_reads_argv_without_argparse():
    # `cli._read` reads every argv and `cli._usage` writes its help and
    # errors, so no module needs argparse, nor io or contextlib to catch
    # what argparse prints
    files = sorted((ROOT / "src" / "spindim").glob("*.py"))
    assert ROOT / "src" / "spindim" / "cli.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            for name in names:
                assert name.split(".")[0] not in {
                    "argparse", "io", "contextlib"}, f"{path.name}: {name}"


def test_no_module_imports_json_when_it_is_imported():
    # `_json.dumps` writes every payload; only an escape needs json
    files = sorted((ROOT / "src" / "spindim").glob("*.py"))
    assert ROOT / "src" / "spindim" / "_json.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        todo = list(tree.body)
        while todo:     # every node but those in function bodies
            node = todo.pop()
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            assert "json" not in [n.split(".")[0] for n in names], (
                f"{path.name}:{node.lineno} imports json")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))


def test_only_the_record_base_sets_fields_and_no_code_is_generated():
    files = sorted((ROOT / "src" / "spindim").glob("*.py"))
    assert ROOT / "src" / "spindim" / "_record.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval"), (
                    f"{path.name}:{node.lineno} calls {node.func.id}")
            if path.name == "_record.py":
                continue
            assert not (isinstance(node, ast.Name)
                        and node.id == "setfield"), (
                f"{path.name}:{node.lineno} uses setfield")
            assert not (isinstance(node, ast.Attribute)
                        and node.attr == "__setattr__"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "object"), (
                f"{path.name}:{node.lineno} uses object.__setattr__")


def test_no_runtime_check_is_an_assert_statement():
    # `python -O` strips assert statements; every check in the library
    # must raise on its own
    files = sorted((ROOT / "src" / "spindim").glob("*.py"))
    assert ROOT / "src" / "spindim" / "invariants.py" in files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), (
                f"{path.name}:{node.lineno} uses an assert statement")


def test_cli_turns_value_error_into_exit_2_in_run_alone():
    # bad input raises ValueError wherever it is found, and `run` alone
    # catches it; `_read` catches a failed flag lookup or int conversion
    # only to raise its own ValueError, which names the flag
    path = ROOT / "src" / "spindim" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    catchers = set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                          else [node.type])
                if any(isinstance(c, ast.Name) and c.id == "ValueError"
                       for c in caught):
                    catchers.add(owner)
            assert not (isinstance(node, ast.Raise)
                        and isinstance(node.cause, ast.Constant)
                        and node.cause.value is None), (
                f"cli.py:{node.lineno} re-raises with 'from None'")
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    cls = getattr(builtins, getattr(base, "id", ""), None)
                    assert not (isinstance(cls, type)
                                and issubclass(cls, BaseException)), (
                        f"cli.py:{node.lineno} defines exception {node.name}")
    assert catchers == {"run", "_read"}


def test_each_subcommand_is_served_by_a_function_of_its_layer():
    # `cli` keeps the option table, the argv reader and the process
    # entry; each `_COMMANDS` entry names (layer, function), and that
    # function is defined at the top of the layer's own module
    src = ROOT / "src" / "spindim"
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert not [name for name in functions if name.startswith("_cmd_")]
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert "repdim" not in imported
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_COMMANDS"])
    served = {}
    for name, entry in zip(table.keys, table.values):
        layer, function = entry.elts[0].elts
        assert layer.id in imported, name.value
        served[name.value] = (layer.id, function.value)
    assert len(served) == 6
    for layer, function in served.values():
        body = ast.parse((src / f"{layer}.py").read_text(encoding="utf-8")).body
        assert function in {node.name for node in body
                            if isinstance(node, ast.FunctionDef)}, (
            f"{layer}.{function}")
