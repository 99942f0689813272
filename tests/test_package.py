"""The package surface, and which submodules a command-line call runs.

Importing seqstar registers its submodules without running them; these
tests read a module's namespace with object.__getattribute__, which does
not trigger the load, to tell which modules a call ran.
"""
import ast
import copy
import hashlib
import importlib.util
import inspect
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import seqstar
from seqstar import sequences
from seqstar.catalog import Const, SpaceTag
from seqstar.embeddings import extend
from seqstar.metric import Dyadic, Exact, ball_member, distance
from seqstar.sequences import (
    AugmentedPoint,
    DepthBudget,
    FinitePoint,
    InfinitePoint,
    PeriodicPoint,
    Point,
    cone_member,
    split_and_weight,
    split_index,
)
from seqstar.topology import Cone, ConeMinus, basic_member, neighborhood_of

SRC = str(Path(seqstar.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=SRC)

EXPORTED = [
    "Agrees", "AugmentedPoint", "BasicClopen", "Bounded", "BudgetExceeded", "Cone", "ConeMinus",
    "ContainmentError", "Counterexample", "Covers", "DepthBudget", "Disagrees", "DomainMismatch",
    "Dyadic", "EmbeddingFamily", "Empty", "EpsilonSchedule", "Exact", "FinitePoint",
    "InfinitePoint", "InvalidEmbedding", "MeetEmbedding", "PartialEmbedding", "PeriodicPoint",
    "Point", "Prefix", "RecheckReport", "Singleton", "SpaceFunction", "TreeSetOracle", "Valid",
    "Violation", "amalgamate", "ball_member", "basic_member", "canonical_enumeration",
    "canonical_index", "classify_baire_function", "compose_function", "constructions",
    "cover_decide", "covers_cone", "distance", "embeddings", "extend", "is_prefix", "meet",
    "meet_preservation_oracle", "metric", "neighborhood_of", "nodes_in_range", "preimage_cone",
    "recheck", "representatives", "restrict", "sequences", "serialize", "split_index",
    "topology", "trace", "uncovered_descent", "validate", "weight", "weight_schedule",
]


# The submodules whose code has run, read without loading any of them.
RAN = ("sorted(n[len('seqstar.'):] for n, m in sys.modules.items() if n.startswith('seqstar.')"
       " and any(k[:1] != '_' for k in object.__getattribute__(m, '__dict__')))")


def test_all_keeps_its_64_names():
    assert sorted(seqstar.__all__) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_the_object_its_module_defines(name):
    value = getattr(seqstar, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"seqstar.{name}"]
    elif isinstance(value, type) or callable(value):
        assert value.__module__.startswith("seqstar.")
        assert getattr(sys.modules[value.__module__], name) is value
    else:  # a union of point or set types
        assert any(getattr(sys.modules[f"seqstar.{m}"], name, None) is value
                   for m in ("sequences", "topology"))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        seqstar.nope  # noqa: B018


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from seqstar import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == EXPORTED
    assert all(ns[name] is getattr(seqstar, name) for name in EXPORTED)


VALUES = [FinitePoint((0, 2)), AugmentedPoint((1,)), PeriodicPoint((3,), (0, 1)),
          Dyadic(3, 2), Exact(Dyadic(1)), Cone((0,)), ConeMinus((1,), 2), Const(SpaceTag.Baire)]


def test_values_unpickle_and_deepcopy_in_an_interpreter_that_loaded_no_module():
    script = ("import copy, pickle, sys, seqstar\n"
              f"assert {RAN} == []\n"
              "values = pickle.loads(sys.stdin.buffer.read())\n"
              "sys.stdout.buffer.write(pickle.dumps([copy.deepcopy(v) for v in values]))\n")
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(VALUES), env=ENV,
                         capture_output=True, check=True).stdout
    back = pickle.loads(out)
    assert back == VALUES == copy.deepcopy(VALUES)


# --- modules a subcommand runs ---------------------------------------------

RUN_AND_REPORT = f"""\
import json, sys
import seqstar.cli as cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({{"code": code, "ran": {RAN}}}), file=sys.stderr)
"""

DIST = ["dist", "--a", '{"kind":"finite","seq":[0,1]}', "--b", '{"kind":"augmented","seq":[0]}']


def _classify_trace(fn: str) -> str:
    """What `seqstar construct classify --fn fn` prints."""
    return subprocess.run([sys.executable, "-m", "seqstar.cli", "construct", "classify", "--fn", fn],
                          env=ENV, capture_output=True, text=True, check=True).stdout


# classify_fn names the function whose classify trace the call reads on stdin.
@pytest.mark.parametrize("argv, classify_fn, needs, not_run", [
    (DIST, None, {"metric", "sequences", "serialize"},
     {"constructions", "trace", "registry", "catalog", "topology", "embeddings"}),
    (["catalog", "list"], None, {"catalog"},
     {"constructions", "trace", "registry", "embeddings"}),
    (["construct", "classify", "--fn", "depth-collapse"], None,
     {"constructions", "registry"}, {"trace", "catalog"}),
    (["construct", "recheck"], "baire-identity", {"trace", "registry", "embeddings"},
     {"constructions", "catalog"}),
    (["catalog", "check-embed", "--pi", '{"kind":"prefix","s":[1]}'], None,
     {"catalog", "registry", "embeddings"}, {"constructions", "trace"}),
], ids=["dist", "catalog-list", "construct", "construct-recheck", "catalog-check-embed"])
def test_a_subcommand_runs_only_the_modules_it_uses(argv, classify_fn, needs, not_run):
    stdin = _classify_trace(classify_fn) if classify_fn else None
    proc = subprocess.run([sys.executable, "-c", RUN_AND_REPORT, json.dumps(argv)], env=ENV,
                          input=stdin, capture_output=True, text=True, check=True)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0
    if classify_fn:
        assert json.loads(proc.stdout) == {"ok": True, "checked": 43, "failures": []}
    assert needs <= set(report["ran"])
    assert not not_run & set(report["ran"])


def test_construct_classify_prints_the_same_bytes_as_before():
    out = subprocess.run([sys.executable, "-m", "seqstar.cli", "construct", "classify",
                          "--fn", "compactify-identity"], env=ENV, capture_output=True,
                         check=True).stdout
    assert len(out) == 5449
    assert hashlib.sha256(out).hexdigest() == \
        "905f89eed3efaf42624430bdf1c4f8634adaa942a6bffb594cb6c7f4093104f1"


# --- the op table against the parser and the benchmark's lists -----------

BENCH_SPEC = Path(__file__).resolve().parent.parent / "bench" / "spec.py"


def test_the_op_table_matches_the_parser_and_the_benchmark_lists():
    from seqstar import cli, constructions, registry

    location = importlib.util.spec_from_file_location("bench_spec", BENCH_SPEC)
    spec = importlib.util.module_from_spec(location)
    location.loader.exec_module(spec)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    choices = next(a for a in commands["construct"]._actions if a.dest == "op").choices
    cli_ops = [name for name, op in registry.OPS.items() if op.cli is not None]
    assert choices == [registry.OPS[name].cli for name in cli_ops] + ["recheck"]
    assert all(callable(getattr(constructions, name, None)) for name in registry.OPS)
    assert spec.CONSTRUCT_FUNCTIONS == cli_ops
    assert sorted(spec.CERT_KINDS) == sorted(set().union(*(op.kinds for op in registry.OPS.values())))


# --- leftovers --------------------------------------------------------------

MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(Path(seqstar.__file__).resolve().parent.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, as a plain name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("module", list(MODULES))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    assert sorted(set(imported) - _used_names(tree)) == []


def test_every_module_level_private_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _used_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreferenced = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unreferenced += [f"{module}.{name}" for name in names
                             if name.startswith("_") and not name.startswith("__")
                             and name not in referenced]
    assert unreferenced == []


# --- where a budget is taken -----------------------------------------------

# A lazy point carries its own depth, so no query takes a budget; only the
# constructions (for their step count) and embed_via, whose budget is unread,
# still do.
QUERIES = [Point.restrict, FinitePoint.restrict, AugmentedPoint.restrict, InfinitePoint.restrict,
           PeriodicPoint.restrict, sequences.restrict, split_and_weight, split_index, cone_member,
           distance, ball_member, basic_member, neighborhood_of, extend]
TAKE_A_BUDGET = {"catalog.embed_via", *(f"constructions.{name}" for name in (
    "ramsey_split", "category_refine", "continuity_refine", "_level_refine", "diameter_shrink",
    "children_stabilize", "disjointify", "limit_refine", "epsilon_discrete_or_ball",
    "shrink_or_discrete", "point_avoid", "finite_avoid_or_converge", "discrete_refine",
    "classify_baire_function"))}


@pytest.mark.parametrize("query", QUERIES, ids=lambda f: f.__qualname__)
def test_a_query_takes_no_budget(query):
    assert "budget" not in inspect.signature(query).parameters


def test_only_the_constructions_and_embed_via_take_a_budget():
    takes = {f"{module}.{node.name}" for module, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and "budget" in [a.arg for a in node.args.args + node.args.kwonlyargs]}
    assert takes == TAKE_A_BUDGET
    assert DepthBudget.__slots__ == ("steps",)
    assert list(inspect.signature(InfinitePoint).parameters) == ["prefix_fn", "label"]
    assert sequences.LAZY_DEPTH == 64
