"""Rules about the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsl"
# read by bench/ only, which src/ never imports
BENCH_READS = {"RoundReport.train_losses", "RoundReport.coordination_skipped", "RoundReport.gda_fallback"}
# dataclass fields read by tests/ only: the id-keyed dicts GDA builds for the
# gates and tests/fingerprints.py (ROADMAP item 3 turns them into properties)
GATE_READS = {"GdaOutcome.deviations", "GdaOutcome.regularized_losses", "GdaOutcome.corrected"}


def modules():
    """Each src/ module's name and syntax tree."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def test_every_function_and_class_in_src_is_referenced_in_src():
    # code that only tests call does not belong in src/: every module-level
    # function or class, and every method, must be named somewhere in src/
    defined, used = {}, set()
    for stem, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defined[f"{node.name}.{sub.name}"] = sub.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        qualified for qualified, name in sorted(defined.items())
        if name not in used and not name.startswith("__") and qualified not in BENCH_READS
    ]
    assert unused == []


def test_every_dataclass_field_is_read_in_src():
    # a field only tests read keeps its value alive for tests alone: every
    # field of a dataclass must be read, as an attribute, somewhere in src/
    fields, read = {}, set()
    for _, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        fields[f"{node.name}.{sub.target.id}"] = sub.target.id
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [q for q, name in sorted(fields.items()) if name not in read and q not in BENCH_READS | GATE_READS]
    assert fields and unread == []
