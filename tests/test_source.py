"""Rules about the source tree itself."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsl"
# read by bench/ only, which src/ never imports
BENCH_READS = {"RoundReport.train_losses", "RoundReport.coordination_skipped", "RoundReport.gda_fallback"}
# read by the gates only: the id-keyed views of GDA's outcome, built on
# read, and LGI's score set (gate C2)
GATE_READS = {"GdaOutcome.regularized_losses", "GdaOutcome.corrected", "LgiOutcome.scores"}
# fields no code reads that stay, each with the reason it stays
GATE_BUILT = {"ScoreSet.round": "the gates construct ScoreSet(t, scores) positionally"}
# instance attributes no src/ code reads that stay, each with the reason it stays
TEST_READS = {
    "FormatError.offset": "tests/test_data.py reads where a malformed IDX file breaks",
    "ProtocolError.offset": "tests/test_transport.py reads where a malformed frame breaks",
}


def modules():
    """Each src/ module's name and syntax tree."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def definitions(trees):
    """Qualified name -> name of every module-level function and class and
    every method in ``trees`` (each a module's name and syntax tree), and
    the same of every dataclass field."""
    callables, fields = {}, {}
    for stem, tree in trees:
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
    callables, fields = definitions(modules())
    allow = BENCH_READS | GATE_READS | GATE_BUILT.keys() | TEST_READS.keys()
    assert sorted(allow - callables.keys() - fields.keys() - assigned_on_self(modules()).keys()) == []
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
        qualified for qualified, name in sorted(definitions(modules())[0].items())
        if name not in used and not name.startswith("__") and qualified not in allow
    ]
    assert unused == []


def named_classes(annotation, aliases):
    """Every class name ``annotation`` mentions: ``C``, ``mod.C`` or ``"C"``,
    alone or inside a union, a container or a module-level alias."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= named_classes(ast.parse(node.value, mode="eval"), aliases)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            names |= aliases.get(name, {name})
    return names


def scopes(node, owner=None):
    """Each function under ``node``, with the class it is a method of (or None)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield owner, child
            yield from scopes(child)
        else:
            yield from scopes(child, child.name if isinstance(child, ast.ClassDef) else owner)


def resolved(value, classes, returns):
    """The classes the expression ``value`` resolves to, given each name's
    ``classes`` and each callable's ``returns``: a name, an item of one, or
    a call (``sorted``, ``list`` and ``tuple`` keep their argument's)."""
    while isinstance(value, ast.Subscript):
        value = value.value
    if isinstance(value, ast.Name):
        return classes[value.id]
    if not isinstance(value, ast.Call):
        return set()
    callee = getattr(value.func, "id", getattr(value.func, "attr", None))
    if callee in ("sorted", "list", "tuple") and value.args:
        return resolved(value.args[0], classes, returns)
    return returns[callee]


def name_classes(owner, fn, aliases, returns):
    """Each name in function ``fn`` (a method of class ``owner``, or None)
    -> every class it is bound to: ``self`` to ``owner``, an annotated
    parameter or variable to the classes its annotation names, and an
    assignment or a loop target to what its value resolves to."""
    classes = defaultdict(set)
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    for arg in args:
        if arg.annotation is not None:
            classes[arg.arg] |= named_classes(arg.annotation, aliases)
    if owner is not None and args and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
        classes[args[0].arg].add(owner)
    bindings = []  # (target, the value it is bound to)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            bindings += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            classes[node.target.id] |= named_classes(node.annotation, aliases)
    bindings = [(target.id, value) for target, value in bindings if isinstance(target, ast.Name)]
    size = -1
    while size != (size := sum(map(len, classes.values()))):  # a value may read a name bound further down
        for name, value in bindings:
            classes[name] |= resolved(value, classes, returns)
    return classes


def owned_reads(trees):
    """(class, attribute) for each attribute read in ``trees`` whose receiver
    resolves to the class (``resolved``, ``name_classes``): so a name
    annotated with a union, an alias or a container of the class counts, as
    does an item of it or a loop over it."""
    aliases = {}  # module-level unions, Alias = A | B
    returns = defaultdict(set)  # callable name -> the classes a call to it makes
    for _, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.BitOr):
                aliases.update({t.id: named_classes(node.value, aliases) for t in node.targets})
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                returns[node.name].add(node.name)
            elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns[node.name] |= named_classes(node.returns, aliases)
    reads = set()
    for _, tree in trees:
        for owner, fn in scopes(tree):
            classes = name_classes(owner, fn, aliases, returns)
            reads |= {
                (c, node.attr) for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load) for c in resolved(node.value, classes, returns)
            }
    return reads


def attribute_reads(trees):
    """The name of every attribute read in ``trees``, on any receiver."""
    return {n.attr for _, tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(trees):
    """The dataclass fields in ``trees`` that no attribute read there reads.
    A field whose name no other dataclass has counts every read of that
    attribute; a name two dataclasses share counts only the reads whose
    receiver resolves to the field's owner (``owned_reads``)."""
    fields = definitions(trees)[1]
    owners = Counter(fields.values())
    read = attribute_reads(trees)
    owned = owned_reads(trees)
    return [
        qualified for qualified, name in sorted(fields.items())
        if not (name in read if owners[name] == 1 else (qualified.split(".")[0], name) in owned)
    ]


def test_every_dataclass_field_is_read_in_src():
    # a field only tests read keeps its value alive for tests alone: every
    # field of a dataclass must be read, as an attribute of its own class
    # where another dataclass has a field of that name, somewhere in src/
    allow = allowed()
    assert definitions(modules())[1]
    assert [q for q in unread_fields(modules()) if q not in allow] == []


def assigned_on_self(trees):
    """Class.attribute -> attribute for each attribute a method in ``trees``
    stores on its first parameter: ``self.x = ...``, as a tuple or loop
    target too, or ``self.x += ...``."""
    assigned = {}
    for _, tree in trees:
        for owner, fn in scopes(tree):
            if owner is None or not fn.args.args:
                continue
            me = fn.args.args[0].arg
            for node in ast.walk(fn):
                stored = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                if stored and getattr(node.value, "id", None) == me:
                    assigned[f"{owner}.{node.attr}"] = node.attr
    return assigned


def unread_attributes(trees):
    """The instance attributes of ``assigned_on_self`` whose name no
    attribute read in ``trees`` reads, on any receiver."""
    read = attribute_reads(trees)
    return sorted(qualified for qualified, name in assigned_on_self(trees).items() if name not in read)


def test_every_attribute_a_method_sets_on_self_is_read_in_src():
    # an attribute nothing reads holds its value for no one
    allow = allowed()
    assert assigned_on_self(modules())
    assert [q for q in unread_attributes(modules()) if q not in allow] == []


def test_the_attribute_rule_sees_every_store():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(this, other):\n"
        "        this.kept = 1\n"
        "        this.pair, this.alone = 2, 3\n"
        "        this.counted += 1\n"
        "        other.elsewhere = 4\n"
        "        for this.looped in range(2):\n"
        "            pass\n"
        "        this.read_later = 5\n"
        "    def use(self, b):\n"
        "        del self.gone\n"
        "        return self.kept, b.pair, self.read_later\n"
        "def f(a):\n"
        "    a.free = 6\n"
    )
    assert sorted(assigned_on_self([("m", tree)])) == [
        "A.alone", "A.counted", "A.kept", "A.looped", "A.pair", "A.read_later",
    ]
    assert unread_attributes([("m", tree)]) == ["A.alone", "A.counted", "A.looped"]


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


def test_the_field_rule_counts_a_shared_name_only_for_its_owner():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    round: int\n"
        "    tag: str\n"
        "    size: int\n"
        "    def later(self):\n"
        "        return self.round\n"
        "@dataclass\n"
        "class B:\n"
        "    round: int\n"
        "    tag: str\n"
        "@dataclass\n"
        "class C:\n"
        "    round: int\n"
        "    tag: str\n"
        "@dataclass\n"
        "class D:\n"
        "    round: int\n"
        "Either = C | int\n"
        "def make() -> 'B':\n"
        "    return B(0, '')\n"
        "def f(e: Either, cs: list[C], ds: tuple[D, ...], x):\n"
        "    b = make()\n"
        "    return b.tag, e.round, [c.tag for c in cs], sorted(ds)[0].round, x.round, x.tag, x.size\n"
    )
    # x resolves to nothing, so its reads count only for the unshared size
    assert unread_fields([("m", tree)]) == ["A.tag", "B.round"]


# where peer bytes and the matrices they carry enter: a ProtocolError, and
# so exit code 3, then always means a peer's fault
PEER_MODULES = {"transport"}
# the modules that lay out bytes: the wire's frames and the IDX reader's
# headers; a frame layout anywhere else would be a second copy of the wire's
BYTE_LAYOUT_MODULES = {"transport", "data"}


def protocol_error_sources(trees):
    """The modules of ``trees`` that construct a ProtocolError: call it, as
    ``ProtocolError(...)`` or ``errors.ProtocolError(...)``, or raise the class."""
    def names_it(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "ProtocolError"

    return sorted({
        stem for stem, tree in trees for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and names_it(node.func)) or (isinstance(node, ast.Raise) and names_it(node.exc))
    })


def test_only_the_peer_facing_modules_construct_a_protocol_error():
    assert protocol_error_sources(modules()) == sorted(PEER_MODULES)


def test_the_protocol_error_rule_sees_every_form():
    sources = {
        "called": "raise ProtocolError('x')\n",
        "qualified": "from . import errors\nerr = errors.ProtocolError('x')\n",
        "bare": "raise ProtocolError\n",
        "caught": "try:\n    f()\nexcept ProtocolError as e:\n    raise ValueError(e) from e\n",
    }
    trees = [(stem, ast.parse(text)) for stem, text in sources.items()]
    assert protocol_error_sources(trees) == ["bare", "called", "qualified"]


def struct_importers(trees):
    """The modules of ``trees`` that import ``struct``, whole or in part."""
    return sorted({
        stem for stem, tree in trees for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "struct")
    })


def test_only_the_byte_layout_modules_import_struct():
    assert struct_importers(modules()) == sorted(BYTE_LAYOUT_MODULES)


def test_the_struct_rule_sees_every_form():
    sources = {
        "whole": "import struct\n",
        "aliased": "import json, struct as s\n",
        "part": "from struct import calcsize\n",
        "nested": "def f():\n    import struct\n",
        "named": "from .config import struct_size\nimport structlog\n",
    }
    trees = [(stem, ast.parse(text)) for stem, text in sources.items()]
    assert struct_importers(trees) == ["aliased", "nested", "part", "whole"]
