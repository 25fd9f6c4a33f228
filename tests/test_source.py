"""Rules about the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsl"
# read by bench/ only, which src/ never imports
BENCH_READS = {"RoundReport.train_losses", "RoundReport.coordination_skipped", "RoundReport.gda_fallback"}
# read by the gates only: the id-keyed views of GDA's outcome, built on read
GATE_READS = {"GdaOutcome.regularized_losses", "GdaOutcome.corrected"}


def modules():
    """Each src/ module's name and syntax tree."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def definitions():
    """Qualified name -> name of every module-level function and class and
    every method in src/, and the same of every dataclass field."""
    callables, fields = {}, {}
    for stem, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                callables[f"{stem}.{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            )
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    callables[f"{node.name}.{sub.name}"] = sub.name
                elif dataclass and isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    fields[f"{node.name}.{sub.target.id}"] = sub.target.id
    return callables, fields


def allowed():
    """The allowlists, each entry checked to name a definition in src/: a
    stale entry would exempt whatever later takes its name."""
    callables, fields = definitions()
    allow = BENCH_READS | GATE_READS
    assert sorted(allow - callables.keys() - fields.keys()) == []
    return allow


def test_every_function_and_class_in_src_is_referenced_in_src():
    # code that only tests call does not belong in src/: every module-level
    # function or class, and every method, must be named somewhere in src/
    used = set()
    for _, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    allow = allowed()
    unused = [
        qualified for qualified, name in sorted(definitions()[0].items())
        if name not in used and not name.startswith("__") and qualified not in allow
    ]
    assert unused == []


def test_every_dataclass_field_is_read_in_src():
    # a field only tests read keeps its value alive for tests alone: every
    # field of a dataclass must be read, as an attribute, somewhere in src/
    read = set()
    for _, tree in modules():
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    allow, fields = allowed(), definitions()[1]
    unread = [q for q, name in sorted(fields.items()) if name not in read and q not in allow]
    assert fields and unread == []


def unused_imports(tree):
    """The names ``tree``'s imports bind that no name in it reads; a dotted
    ``import a.b`` binds ``a``, and ``__future__`` imports bind nothing."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    return [name for name in bound if name not in used]


def test_every_name_a_module_imports_is_used_in_it():
    # deleting a check must not leave its error class imported behind it
    unused = [f"{stem}: {name}" for stem, tree in modules() for name in unused_imports(tree)]
    assert unused == []


def test_the_import_rule_names_only_the_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .errors import ConfigError, DataError as Bad, ProtocolError\n"
        "def f(x: np.ndarray) -> None:\n"
        "    sys.exit(os.path.join(x))\n"
        "    raise ProtocolError\n"
    )
    assert unused_imports(tree) == ["ConfigError", "Bad"]
