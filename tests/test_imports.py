"""Every name a module of ``negmtl`` imports is used in that module,
every top-level function, class or assigned name is referenced by some
module, every method, property and class constant is read by some
module, and every
JSON decode can fail only with the module's own error, only the
modules that hold the tape's ops record tape nodes, only the CLI's
``_Outputs`` writes artifacts, and ``training`` names no model
parameter.

AST scans stand in for a linter: an unused import survives every other
test and makes a module look coupled to code it never calls, and a
definition nothing references is dead code that the tests keep alive.
A ``json.load`` outside a ``try`` that catches ``ValueError`` lets a
plain ``ValueError`` (an integer too long to convert, say) escape with
no file or line in its message.  A numpy allocation without a ``dtype``
in the modules that train and predict is float64, and would quietly
put float32 training back into float64.  A call to
``autodiff._make_output`` outside ``autodiff``, ``layers`` and ``crf``
is a generic op growing back where the model and the CLI should only
compose the ones the model records.  A CLI command that creates a
directory or writes a file itself, outside ``_Outputs``, writes an
artifact its manifest does not list.  A string in ``training`` that
names a model parameter is the optimizer special-casing one parameter
of one model, which every other model it steps would then inherit.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import negmtl

PACKAGE = Path(negmtl.__file__).parent

# Bound on purpose though never called: bench/tracing.py wraps
# cli.negation_tag and training.predict_document to attribute time to
# them, so the names must stay.
KEPT = {("cli", "negation_tag"), ("training", "predict_document")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    # attribute chains start at a Name, so `np.zeros` counts as a use of np
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [
        f"{path.name}:{line} imports {name!r} and never uses it"
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
        if name not in used_names(tree) and (path.stem, name) not in KEPT
    ]
    assert not unused, "\n".join(unused)


def test_kept_names_are_still_imported():
    for module, name in KEPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree), f"{module}.{name} is no longer imported; drop it from KEPT"


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import (a, b as c)\nnp.zeros(a)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "c"}


# Top-level definitions no module of the package references, kept as
# public API on purpose.
UNREFERENCED_KEPT = {
    ("models", "negation_tag"): "bench/microbench.py times it; criterion 4 tags with it",
    ("models", "predict_document"): "bench/microbench.py times it; the one-document case of predict_documents",
    ("training", "train_stl"): "bench/workloads.py runs it; criteria 4 and 5 train with it",
    ("training", "train_mtl"): "bench/workloads.py runs it; criterion 5 trains with it",
    ("evaluation", "negation_token_f1"): "bench/microbench.py times it; per-epoch dev negation F1 is to use it",
    ("corpus", "from_bio"): "the BIO round-trip check (criterion 3) inverts to_bio with it",
    ("training", "bow_features"): "bench/microbench.py times it; the tests score one document with it",
    ("autodiff", "sum_all"): "bench/microbench.py scalarizes layer outputs with it; no model path records it",
}


def top_level_definitions(trees: dict[str, ast.Module]) -> dict[tuple[str, str], ast.stmt]:
    return {
        (module, stmt.name): stmt
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def top_level_assignments(trees: dict[str, ast.Module]) -> dict[tuple[str, str], ast.stmt]:
    """Names a module-level assignment binds (``X = ...``, ``A, B = ...``,
    ``X: int = ...``); dunders such as ``__all__`` are exempt."""
    found = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        found[module, node.id] = stmt
    return found


def unreferenced(trees: dict[str, ast.Module], definitions: dict[tuple[str, str], ast.stmt]) -> set[tuple[str, str]]:
    """Keys of ``definitions`` whose name no statement other than their
    own uses, as a name or as an attribute (``ad.rows``,
    ``self.predict_features``).  A name bound by an import alone does
    not count."""
    uses = [
        (stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
        for tree in trees.values()
        for stmt in tree.body
    ]
    return {
        key
        for key, definition in definitions.items()
        if not any(key[1] in names for stmt, names in uses if stmt is not definition)
    }


def unreferenced_definitions(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    return unreferenced(trees, top_level_definitions(trees))


def unreferenced_assignments(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    return unreferenced(trees, top_level_assignments(trees))


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_unreferenced_definitions():
    dead = sorted(unreferenced_definitions(package_trees()) - set(UNREFERENCED_KEPT))
    assert not dead, "\n".join(f"{m}.{name} is defined and never referenced" for m, name in dead)


@pytest.mark.parametrize("key", sorted(UNREFERENCED_KEPT), ids=lambda k: ".".join(k))
def test_kept_definitions_exist_and_are_still_unreferenced(key):
    trees = package_trees()
    assert key in top_level_definitions(trees), f"{'.'.join(key)} is gone; drop it from UNREFERENCED_KEPT"
    assert key in unreferenced_definitions(trees), (
        f"{'.'.join(key)} is referenced now; drop it from UNREFERENCED_KEPT"
    )


def test_scan_finds_an_unreferenced_definition():
    trees = {
        "a": ast.parse(
            "import b\n"
            "def used(): return 1\n"
            "def recursive(): return recursive()\n"
            "class Dead: pass\n"
            "def method_named(): pass\n"
            "x = b.helper(used)\n"
        ),
        "b": ast.parse(
            "from a import Dead\n"
            "def helper(f): return f\n"
            "class K:\n"
            "    def go(self): return self.method_named()\n"
        ),
    }
    assert unreferenced_definitions(trees) == {("a", "recursive"), ("a", "Dead"), ("b", "K")}


def test_no_unreferenced_assignments():
    dead = sorted(unreferenced_assignments(package_trees()))
    assert not dead, "\n".join(f"{m}.{name} is assigned and never read" for m, name in dead)


def test_scan_finds_an_unreferenced_assignment():
    trees = {
        "a": ast.parse(
            "import b\n"
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "__all__ = ['f']\n"  # dunders are exempt
            "LO, HI = 0, LIMIT\n"
            "TABLE: dict = {}\n"
            "COUNT = COUNT_START = 0\n"
            "def f(): return LO + b.STEP\n"
        ),
        "b": ast.parse("STEP = 1\nSELF = SELF\n"),
    }
    assert unreferenced_assignments(trees) == {
        ("a", "SPARE"), ("a", "HI"), ("a", "TABLE"), ("a", "COUNT"), ("a", "COUNT_START"), ("b", "SELF"),
    }


# Methods, properties and class constants no module of the package reads
# as an attribute, kept on purpose.
UNREFERENCED_MEMBERS_KEPT = {
    ("corpus", "BioTag.from_string"): "scoring tags.jsonl against a gold corpus parses tags with it",
    ("evaluation", "ClassScore.f1"): "the negation-F1 report reads it; tests score tagging with it",
}


def unreferenced_members(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """``(module, "Class.member")`` for each method, property or class
    constant (a plain assignment in the class body) of a top-level class
    whose name no module reads as an attribute outside the member itself.
    Dunders are exempt: the interpreter calls them.  Annotated class-body
    names are dataclass fields, which the constructor sets."""
    attrs = Counter(n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    dead = set()
    for module, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for member in cls.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [member.name]
                elif isinstance(member, ast.Assign):
                    names = [t.id for t in member.targets if isinstance(t, ast.Name)]
                else:
                    continue
                own = Counter(n.attr for n in ast.walk(member) if isinstance(n, ast.Attribute))
                dead |= {
                    (module, f"{cls.name}.{name}")
                    for name in names
                    if not (name.startswith("__") and name.endswith("__")) and attrs[name] == own[name]
                }
    return dead


def test_no_unreferenced_members():
    dead = sorted(unreferenced_members(package_trees()) - set(UNREFERENCED_MEMBERS_KEPT))
    assert not dead, "\n".join(f"{m}.{name} is defined and never read" for m, name in dead)


@pytest.mark.parametrize("key", sorted(UNREFERENCED_MEMBERS_KEPT), ids=lambda k: ".".join(k))
def test_kept_members_are_still_unreferenced(key):
    assert key in unreferenced_members(package_trees()), (
        f"{'.'.join(key)} is gone or read now; drop it from UNREFERENCED_MEMBERS_KEPT"
    )


def test_scan_finds_an_unreferenced_member():
    trees = {
        "a": ast.parse(
            "class A:\n"
            "    LIMIT = 3\n"  # read below
            "    SPARE = 4\n"
            "    field: int = 0\n"  # a dataclass field, not a constant
            "    def __len__(self): return 0\n"
            "    def used(self): return self.LIMIT\n"
            "    def recursive(self): return self.recursive()\n"
            "    @property\n"
            "    def unread(self): return 1\n"
            "def f(a): return a.used()\n"
        ),
        "b": ast.parse("class B:\n    def go(self, x): return x.unread_elsewhere\n"),
    }
    assert unreferenced_members(trees) == {
        ("a", "A.SPARE"), ("a", "A.recursive"), ("a", "A.unread"), ("b", "B.go"),
    }


# handler names that catch ValueError: the class itself or a superclass
CATCHES_VALUE_ERROR = {"ValueError", "Exception", "BaseException"}


def unguarded_json_decodes(tree: ast.Module) -> list[int]:
    """Lines of ``json.load``/``json.loads`` calls that no enclosing ``try``
    body guards with a handler catching ``ValueError``."""

    def catches_value_error(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:  # a bare except
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(getattr(t, "id", getattr(t, "attr", None)) in CATCHES_VALUE_ERROR for t in types)

    guarded = {
        id(node)
        for t in ast.walk(tree)
        if isinstance(t, ast.Try) and any(map(catches_value_error, t.handlers))
        for stmt in t.body
        for node in ast.walk(stmt)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("load", "loads")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and id(node) not in guarded
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_json_decodes_catch_value_error(path):
    lines = unguarded_json_decodes(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "\n".join(
        f"{path.name}:{line} decodes JSON outside a try that catches ValueError" for line in lines
    )


def test_scan_finds_an_unguarded_json_decode():
    tree = ast.parse(
        "import json\n"
        "json.loads(a)\n"  # 2: no try at all
        "try:\n"
        "    json.load(f)\n"  # 4: JSONDecodeError is a subclass; too-long integers escape it
        "except json.JSONDecodeError:\n"
        "    pass\n"
        "try:\n"
        "    x = [json.loads(b)]\n"  # guarded
        "except (KeyError, ValueError):\n"
        "    json.loads(c)\n"  # 10: in a handler, not in the try body
        "try:\n"
        "    json.loads(d)\n"  # guarded
        "except Exception:\n"
        "    pass\n"
    )
    assert unguarded_json_decodes(tree) == [2, 4, 10]


# The modules whose buffers hold the working precision of training and
# prediction; every allocation there takes its dtype from its inputs.
PRECISION_MODULES = ("autodiff", "layers", "crf")
ALLOCATORS = {"empty", "zeros", "ones", "full"}
FLOAT64_SPELLINGS = {"float64", "double", "float_", "float", "f8", "<f8"}


def float64_allocations(tree: ast.Module) -> list[int]:
    """Lines of ``np.empty``/``zeros``/``ones``/``full`` calls without a
    ``dtype=`` keyword (the ``*_like`` forms take their input's dtype),
    and of any ``dtype=`` naming float64 outright."""

    def is_float64(value: ast.expr) -> bool:
        name = getattr(value, "attr", getattr(value, "id", getattr(value, "value", None)))
        return isinstance(name, str) and name in FLOAT64_SPELLINGS

    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
            and func.attr in ALLOCATORS
            and not dtypes
        ):
            lines.add(node.lineno)
        if any(map(is_float64, dtypes)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", PRECISION_MODULES)
def test_allocations_take_their_dtype(module):
    path = PACKAGE / f"{module}.py"
    lines = float64_allocations(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "\n".join(
        f"{path.name}:{line} allocates float64: pass dtype= from an input, or use a *_like call"
        for line in lines
    )


def test_scan_finds_a_float64_allocation():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.empty((2, 3))\n"  # 2: no dtype
        "b = np.zeros_like(a)\n"
        "c = np.full(3, 0.5, dtype=a.dtype)\n"
        "d = np.ones(3, dtype=np.float64)\n"  # 5: float64 by name
        "e = np.asarray(a, dtype=float)\n"  # 6: float64 by another name
        "f = np.empty(3, dtype=np.intp)\n"
        "g = np.zeros(3, np.float32)\n"  # 8: a positional dtype does not count
        "h = np.asarray(a, dtype='f8')\n"  # 9
    )
    assert float64_allocations(tree) == [2, 5, 6, 8, 9]


# The modules that hold the ops the tape records: the autodiff primitives
# and the fused layer and CRF ops.
RECORDING_MODULES = ("autodiff", "layers", "crf")


def make_output_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``_make_output``: a call, an attribute read such
    as ``ad._make_output``, or an import of it under any alias."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_make_output":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_make_output":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_make_output" for a in node.names):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem not in RECORDING_MODULES],
    ids=lambda p: p.stem,
)
def test_only_the_op_modules_record_tape_nodes(path):
    lines = make_output_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "\n".join(
        f"{path.name}:{line} records a tape node: compose the ops of {', '.join(RECORDING_MODULES)}"
        for line in lines
    )


def test_scan_finds_a_make_output_use():
    tree = ast.parse(
        "from . import autodiff as ad\n"
        "from .autodiff import _make_output as record\n"  # 2
        "def mul(a, b):\n"
        "    return ad._make_output(a.data * b.data, (a, b), None)\n"  # 4
        "op = _make_output\n"  # 5
        "make_output(a)\n"
        "ad.make_output_later(a)\n"
    )
    assert make_output_uses(tree) == [2, 4, 5]


# What creates a directory or writes an artifact.  In ``cli`` only the
# methods of ``_Outputs`` name these, so each artifact is in the manifest
# and ``--out`` appears only at a command's first write.
ARTIFACT_WRITES = {"atomic_open", "mkdir", "save_checkpoint", "write_predictions"}


def artifact_writes_outside(tree: ast.Module, owner: str) -> list[int]:
    """Lines that call or otherwise name one of ``ARTIFACT_WRITES`` (as a
    name, or as an attribute such as ``path.mkdir``) outside the body of
    the top-level class ``owner``.  Imports do not count."""
    inside = {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == owner
        for node in ast.walk(cls)
    }
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if (getattr(node, "id", None) or getattr(node, "attr", None)) in ARTIFACT_WRITES and id(node) not in inside
    })


def test_only_outputs_writes_cli_artifacts():
    path = PACKAGE / "cli.py"
    lines = artifact_writes_outside(ast.parse(path.read_text(), filename=str(path)), "_Outputs")
    assert not lines, "\n".join(f"{path.name}:{line} writes an artifact: write it through _Outputs" for line in lines)


def test_scan_finds_an_artifact_write_outside_outputs():
    tree = ast.parse(
        "from .atomic import atomic_open\n"
        "class _Outputs:\n"
        "    def text(self, name, text):\n"
        "        self.path.mkdir(exist_ok=True)\n"
        "        with atomic_open(self.path / name) as fh:\n"
        "            fh.write(text)\n"
        "def cmd(out, ckpt):\n"
        "    out.mkdir(parents=True)\n"  # 8
        "    save_checkpoint(ckpt, out / 'c.bin')\n"  # 9
        "    write = write_predictions\n"  # 10: an alias writes too
        "    out.text('a.txt', 'x')\n"
        "class Other:\n"
        "    def go(self, c, p): return training.save_checkpoint(c, p)\n"  # 13
    )
    assert artifact_writes_outside(tree, "_Outputs") == [8, 9, 10, 13]


def parameter_names_named(tree: ast.Module, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each string constant that is one of ``names``."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    )


def test_training_names_no_model_parameter():
    import numpy as np

    from negmtl.models import ModelParams

    params = ModelParams.init(8, 4, 3, np.random.default_rng(0), with_negation_head=True)
    path = PACKAGE / "training.py"
    found = parameter_names_named(ast.parse(path.read_text(), filename=str(path)), set(params.named_parameters()))
    assert not found, "\n".join(
        f"{path.name}:{line} names parameter {name!r}: the optimizer treats every parameter alike"
        for line, name in found
    )


def test_scan_finds_a_parameter_name():
    tree = ast.parse(
        'emb = params.get("embedding.weights")\n'  # 1
        'raise E(f"does not fit embedding.weights of {shape}")\n'
        "params.embedding.weights\n"
        'names = ["out.w", "out.b2"]\n'  # 4
    )
    assert parameter_names_named(tree, {"embedding.weights", "out.w"}) == [(1, "embedding.weights"), (4, "out.w")]
