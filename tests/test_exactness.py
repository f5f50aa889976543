"""Static guard: no floating point in the modules that decide the 2-pi
comparison.  Angles are integer weights over one unit and the loop
searches compare integers; a float literal, a ``float(...)`` call or an infinity
sentinel would bring rounding next to that comparison."""

import ast
import inspect
from pathlib import Path

import pytest

import artinlink

SRC = Path(artinlink.__file__).parent
GUARDED = ("complex_link.py", "cycles.py", "curvature.py")


def float_uses(source: str) -> list[str]:
    """Line and kind of every float literal, ``float`` call and
    ``math.inf`` / ``inf`` import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float(...) call")
        elif isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in ("inf", "nan"):
                    found.append(f"line {node.lineno}: imports math.{alias.name}")
    return found


@pytest.mark.parametrize("module", GUARDED)
def test_no_floating_point_in_exact_modules(module):
    assert float_uses((SRC / module).read_text()) == []


def test_loop_engine_is_guarded_and_keys_are_integers():
    from fractions import Fraction

    from artinlink import build_complex, build_link, make_loop, triangle_presentation
    from artinlink.cycles import _least_cycle_through, _shortest_cycle, min_angle_cycle

    # moving the search out of the guarded modules would hide it from
    # the static check above
    for fn in (_least_cycle_through, _shortest_cycle):
        assert Path(inspect.getsourcefile(fn)).name in GUARDED
    link = build_link(build_complex(triangle_presentation(3, 4, 5)))
    weight = [1 + i % 3 for i in range(len(link.edges))]
    key, ids, eids = _shortest_cycle(link, weight)
    assert type(key) is int and all(type(i) is int for i in ids + eids)
    loop = make_loop(link, [link.vertices[i] for i in ids])
    assert loop.edge_indices == eids
    n = len(link.vertices)
    assert divmod(key, n) == (sum(weight[e] for e in loop.edge_indices), loop.length)
    angled = link.with_angles(weight, 12)
    value, _ = min_angle_cycle(angled)
    assert value == Fraction(key // n, 12)


def test_guard_catches_each_float_form():
    source = """
import math
from math import inf
a = 0.5
b = float("inf")
c = math.inf
"""
    kinds = [use.split(": ", 1)[1] for use in float_uses(source)]
    assert kinds == [
        "imports math.inf",
        "float literal 0.5",
        "float(...) call",
        ".inf",
    ]


def unused_imports(source: str) -> list[str]:
    """Every name that ``source`` imports and never reads, including
    reads in quoted annotations; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported, quoted = {}, []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        for ann in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if ann is not None:
                quoted += (
                    ast.parse(c.value, mode="eval")
                    for c in ast.walk(ann)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    read = {
        n.id
        for t in (tree, *quoted)
        for n in ast.walk(t)
        if isinstance(n, ast.Name)
    }
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in read
    ]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_import_guard_catches_an_unused_name():
    source = """
from __future__ import annotations
import os, os.path as osp
from typing import Iterable, Mapping
def f(x: "Mapping[str, int]") -> None:
    return os
"""
    assert unused_imports(source) == ["line 3: osp", "line 4: Iterable"]


def call_sites(source: str, callee: str) -> list[tuple[str | None, int]]:
    """(top-level definition, line) of every call to a function named
    ``callee``, bare or as an attribute; None outside definitions."""
    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and callee in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                sites.append((owner, node.lineno))
    return sites


def test_batteries_have_one_sweep_runner():
    # one pool and one timed function: every battery goes through the
    # same chunked case loop, and a second runner shows up here
    source = (SRC / "batteries.py").read_text()
    (pool,) = call_sites(source, "Pool")
    assert pool[0] == "_sweep"
    assert {owner for owner, _ in call_sites(source, "perf_counter")} == {"_sweep"}


def test_runner_guard_sees_a_second_runner():
    source = """
import time
from time import perf_counter
def a():
    return time.perf_counter()
def b():
    return perf_counter()
t = time.perf_counter()
"""
    assert call_sites(source, "perf_counter") == [("a", 5), ("b", 7), (None, 8)]


def name_uses(source: str, name: str) -> list[tuple[str | None, int]]:
    """(top-level definition, line) of every read or import of
    ``name``, bare or as an attribute, called or passed on; None
    outside definitions."""
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            field = field_of.get(type(node))
            if field and getattr(node, field) == name:
                sites.append((owner, node.lineno))
    return sites


def test_only_the_engine_runs_the_loop_searches():
    # one loop engine: a second search order or witness path would have
    # to read the one search from a start outside _shortest_cycle
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    owners = {
        (name, owner)
        for name, source in sources.items()
        for owner, _ in name_uses(source, "_least_cycle_through")
    }
    assert owners == {("cycles.py", "_shortest_cycle")}


def test_search_guard_sees_every_use():
    source = """
from .cycles import _least_cycle_through as bfs
from . import cycles
def engine(adj):
    search = cycles._least_cycle_through
    return search(adj, 0, 9)
def girth(adj):
    return _least_cycle_through(adj, 0, 9)
"""
    assert name_uses(source, "_least_cycle_through") == [
        (None, 2),
        ("engine", 5),
        ("girth", 8),
    ]


ID_SCHEME = ("_whole", "_vids", "_eids", "_by_rank", "_edge_ids")


def id_scheme_reads(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every read of the link's id scheme, the
    private ``LinkGraph`` fields in ``ID_SCHEME``, outside complex_link.py."""
    return [
        (module, name, line)
        for module, source in sorted(sources.items())
        if module != "complex_link.py"
        for name in ID_SCHEME
        for _, line in name_uses(source, name)
    ]


def test_only_the_link_reads_its_id_scheme():
    # generator rank r -> vertex ids 2r, 2r + 1 and cell c -> edge ids 3c + i
    # have one owner: every other module names link vertices through
    # LinkGraph's resolver and loop lookup
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert id_scheme_reads(sources) == []


def test_id_scheme_guard_sees_every_read():
    source = """
def ids(link, v):
    whole = link._whole or link
    return whole._by_rank, link._vids, link._eids[0], link._edge_ids.get(v)
"""
    reads = id_scheme_reads({"complex_link.py": source, "forbidden.py": source})
    assert [name for _, name, _ in reads] == list(ID_SCHEME)
    assert {module for module, _, _ in reads} == {"forbidden.py"}


def hop_search_sites(source: str) -> list[tuple[str | None, int]]:
    """(top-level definition, line) of every read of ``_shortest_cycle``
    that can run its hop search: a call with no weight, or with one that
    may be None, and any read that is not the callee of a call."""
    sites = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        weight_of = {}  # callee -> its weight argument, a None constant if none
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                kw = [k.value for k in node.keywords if k.arg == "weight"]
                given = node.args[1:2] + kw
                weight_of[id(node.func)] = given[0] if given else ast.Constant(None)
        for node in ast.walk(top):
            if "_shortest_cycle" not in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
            ):
                continue
            weight = weight_of.get(id(node))  # None: read but not called
            if weight is None or any(
                isinstance(sub, ast.Constant) and sub.value is None
                for sub in ast.walk(weight)
            ):
                sites.append((owner, node.lineno))
    return sites


def test_only_the_hop_accessor_runs_the_hop_search():
    # the hop search runs once per link because one accessor holds its
    # answer: a second unweighted call would run it again
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    owners = {
        (name, owner)
        for name, source in sources.items()
        for owner, _ in hop_search_sites(source)
    }
    assert owners == {("cycles.py", "_hop_search")}


def test_hop_guard_sees_every_hop_search():
    source = """
from . import cycles
def hops(link):
    return cycles._shortest_cycle(link)
def weighted(link, weight):
    return _shortest_cycle(link, weight), _shortest_cycle(link, weight=weight)
def maybe(link, w):
    return _shortest_cycle(link, None if w else link.weight)
def passed_on(link):
    search = _shortest_cycle
    return search(link)
"""
    assert hop_search_sites(source) == [("hops", 4), ("maybe", 8), ("passed_on", 10)]


def chain_builders(sources: dict[str, str]) -> list[tuple[str, str | None]]:
    """(module, top-level definition) of every call to ``build_complex``
    or ``build_link`` in ``sources``, module name -> source."""
    return sorted(
        {
            (name, owner)
            for name, source in sources.items()
            for callee in ("build_complex", "build_link")
            for owner, _ in call_sites(source, callee)
        },
        key=str,
    )


def test_only_link_of_builds_the_complex_and_link():
    # the chain presentation -> complex -> link is written out once:
    # every later stage reads the complex and presentation from the link
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert chain_builders(sources) == [("complex_link.py", "link_of")]


def test_chain_guard_sees_a_second_builder():
    source = """
from . import complex_link
from .complex_link import build_complex, build_link
def link_of(gamma):
    return build_link(build_complex(build_triangular(gamma)))
def certify(p):
    return complex_link.build_complex(p)
class Runner:
    def run(self, k):
        return build_link(k)
"""
    assert chain_builders({"m.py": source}) == [
        ("m.py", "Runner"),
        ("m.py", "certify"),
        ("m.py", "link_of"),
    ]


# what the brute-force oracles may take from the library: the names
# that describe an input or a result, never an algorithm they check
ORACLE_IMPORTS = {
    "HEAD",
    "TAIL",
    "CyclicWord",
    "DefiningGraph",
    "FreeWord",
    "GammaEdge",
    "LinkVertex",
    "Orientation",
    "OrientationAssignment",
    "presentations.hub_name",
}


def library_imports(source: str) -> set[str]:
    """Every name imported from ``artinlink`` in ``source``: ``from
    artinlink import X`` gives ``X``, ``from artinlink.m import X``
    gives ``m.X``, and ``import artinlink.m`` gives ``artinlink.m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "artinlink"
            }
        elif isinstance(node, ast.ImportFrom) and node.module:
            package, _, module = node.module.partition(".")
            if package == "artinlink":
                prefix = f"{module}." if module else ""
                found |= {prefix + alias.name for alias in node.names}
    return found


def test_oracles_import_no_library_algorithm():
    # ROADMAP aim 3: an oracle that called the code it checks would
    # agree with it by construction
    source = (Path(__file__).parent / "oracle_tools.py").read_text()
    assert library_imports(source) - ORACLE_IMPORTS == set()


def test_oracle_guard_sees_an_engine_import():
    source = (Path(__file__).parent / "oracle_tools.py").read_text()
    planted = """
def lightest(adj, unset):
    from artinlink.cycles import _lightest_four_cycle
    import artinlink.forbidden
    from artinlink import girth
    return _lightest_four_cycle(adj, unset)
"""
    assert library_imports(source + planted) - ORACLE_IMPORTS == {
        "cycles._lightest_four_cycle",
        "artinlink.forbidden",
        "girth",
    }


def count_chain_calls(monkeypatch) -> dict[str, int]:
    """Count the calls of the three build steps through every binding
    of them in the loaded ``artinlink`` modules."""
    import sys

    from artinlink import complex_link, presentations

    chain = {
        "build_triangular": presentations.build_triangular,
        "build_complex": complex_link.build_complex,
        "build_link": complex_link.build_link,
    }
    counts = dict.fromkeys(chain, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "artinlink"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, fn in chain.items():
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    return counts


def test_each_certificate_builds_its_link_once(monkeypatch):
    from artinlink import DefiningGraph, Orientation, certify, triangle_graph
    from artinlink.batteries import (
        b2_case,
        enumerate_oriented_states,
        enumerate_triangle_free_oriented_states,
        oracle_case,
    )

    oracle_state = enumerate_oriented_states(4)[-1]
    b2_state = enumerate_triangle_free_oriented_states(4)[-1]
    square = DefiningGraph(
        ("a", "b", "c", "d"),
        [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", 3)],
    )
    k22 = DefiningGraph(
        ("a0", "a1", "b0", "b1"),
        [(a, b, 2, Orientation.WILDCARD) for a in ("a0", "a1") for b in ("b0", "b1")],
    )
    runs = [
        lambda: certify(triangle_graph(3, 4, 5)),
        lambda: certify(triangle_graph(2, 4, 5), scheme="B2"),
        lambda: certify(square),  # the orientation search runs first
        lambda: certify(k22),
        lambda: oracle_case(oracle_state, 4, True),
        lambda: b2_case(b2_state, 4),
    ]
    counts = count_chain_calls(monkeypatch)
    for run in runs:
        counts.update(dict.fromkeys(counts, 0))
        run()
        assert counts == dict.fromkeys(counts, 1)


VALUE_METHODS = ("__eq__", "__hash__", "__setattr__", "__bool__", "__post_init__")


def hand_written_value_methods(source: str) -> list[str]:
    """``Class.name`` of every equality, hashing, assignment, truth or
    post-construction method that a class body defines, by ``def`` or
    by assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [getattr(t, "id", None) for t in item.targets]
                else:
                    continue
                found += [f"{node.name}.{n}" for n in names if n in VALUE_METHODS]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_value_semantics_come_from_dataclasses(module):
    # equality, hashing and immutability come from ``dataclasses`` or
    # ``NamedTuple``, and truth from ``__len__``: one mechanism each.  A
    # value gets its fields once, in its constructor: no ``__post_init__``
    # rewrites what the generated ``__init__`` wrote
    assert hand_written_value_methods((SRC / module).read_text()) == []


def test_value_guard_sees_a_planted_method():
    source = """
class A:
    def __eq__(self, other):
        return True
    def __post_init__(self):
        pass
    class Inner:
        __hash__ = None
def f():
    class B:
        __bool__ = __len__ = len
        def __setattr__(self, name, value):
            pass
"""
    assert hand_written_value_methods(source) == [
        "A.__eq__",
        "A.__post_init__",
        "Inner.__hash__",
        "B.__bool__",
        "B.__setattr__",
    ]


def plain_records():
    """One record of each plain result type, by type name, built by the
    pipeline."""
    from artinlink import batteries, curvature, smallcancel
    from artinlink import link_of, triangle_graph

    link = link_of(triangle_graph(2, 4, 5))
    metric = curvature.assign_metric(link, curvature.B2)
    return {
        "MetricAssignment": metric,
        "LinkCondition": curvature.check_link_condition(link, metric),
        "CurvatureReport": curvature.certify(triangle_graph(2, 4, 5)),
        "PieceTable": smallcancel.compute_pieces(link),
        "BatteryResult": batteries.battery_tietze(4),
    }


RECORD_FIELDS = {
    "MetricAssignment": ("scheme", "lengths_sq", "corner_weights", "angle_unit"),
    "LinkCondition": ("holds", "min_over_pi", "witness"),
    "CurvatureReport": (
        "scheme",
        "verdict",
        "biautomatic",
        "theorem_cited",
        "girth",
        "girth_witness",
        "min_angle_over_pi",
        "min_angle_witness",
        "forbidden",
        "small_cancellation",
        "orientation",
        "notes",
    ),
    "PieceTable": ("pieces", "max_piece_len", "decompositions"),
    "BatteryResult": ("name", "cases", "failures", "elapsed"),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_plain_records_are_immutable_values(name):
    record = plain_records()[name]
    fields = RECORD_FIELDS[name]
    values = {f: getattr(record, f) for f in fields}
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    assert type(record)(**values) == record
    if name == "CurvatureReport":  # the one default
        assert type(record)(*list(values.values())[:-1]).notes == ()
    for f in fields:
        assert type(record)(**{**values, f: object()}) != record
    shown = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(record) == f"{name}({shown})"
