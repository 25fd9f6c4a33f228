"""Rules about the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsl"
# read by bench/ only, which src/ never imports
BENCH_READS = {"Partition.sizes", "RoundReport.train_losses"}


def test_every_function_and_class_in_src_is_referenced_in_src():
    # code that only tests call does not belong in src/: every module-level
    # function or class, and every method, must be named somewhere in src/
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
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
