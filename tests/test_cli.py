import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artinlink import batteries, certify, cli
from artinlink.cli import main
from artinlink.complex_link import link_of
from artinlink.cycles import enumerate_short_loops
from artinlink.forbidden import search_orientation
from artinlink.gamma_io import load_gamma, parse_gamma_json
from artinlink.smallcancel import compute_pieces

TRIANGLE_333 = """\
vertex a
vertex b
vertex c
edge a b 3 >
edge b c 3 >
edge c a 3 >
"""

TRIANGLE_245 = """\
vertex a
vertex b
vertex c
edge a b 2 ?
edge b c 4 >
edge c a 5 >
"""

UNORIENTED_SQUARE = """\
vertex a
vertex b
vertex c
vertex d
edge a b 3
edge b c 3
edge c d 3
edge a d 3
"""


@pytest.fixture
def gamma_file(tmp_path):
    def write(text, name="graph.gamma"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_json_verdict(gamma_file, capsys):
    code, out, _ = run(capsys, ["certify", gamma_file(TRIANGLE_333), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NonPositivelyCurved"
    assert report["scheme"] == "A2"
    assert report["min_angle_over_pi"] == "2"
    assert report["small_cancellation"] == {"c": 3, "t": 6}


def test_certify_inconclusive_still_exits_zero(gamma_file, capsys):
    code, out, _ = run(capsys, ["certify", gamma_file(TRIANGLE_245)])
    assert code == 0
    assert "Inconclusive" in out


def test_certify_scheme_flag(gamma_file, capsys):
    code, out, _ = run(
        capsys, ["certify", gamma_file(TRIANGLE_245), "--scheme", "a2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["min_angle_over_pi"] == "4/3"


def test_loops_reports_the_two_paths(gamma_file, capsys):
    code, out, _ = run(capsys, ["loops", gamma_file(TRIANGLE_245), "--max", "4"])
    assert code == 0
    lines = set(out.strip().splitlines())
    assert lines == {
        "a_bar - b - c_bar - x_{c,a}_bar - a_bar",
        "a_bar - b - x_{b,c} - c - a_bar",
    }


def test_loops_json(gamma_file, capsys):
    code, out, _ = run(
        capsys, ["loops", gamma_file(TRIANGLE_245), "--max", "4", "--format", "json"]
    )
    assert code == 0
    assert len(json.loads(out)) == 2


DIGITS_4000 = "9" * 4000  # under int()'s digit limit, so argparse takes it


@pytest.mark.parametrize(
    "value", ["100", "-5", "2", pytest.param(DIGITS_4000, id="4000-digits")]
)
def test_loops_max_out_of_range_is_a_one_line_error(gamma_file, capsys, value):
    code, out, err = run(capsys, ["loops", gamma_file(TRIANGLE_245), "--max", value])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--max" in err and value[:20] in err and len(err.encode()) < 200


def test_link_dot_output(gamma_file, capsys):
    code, out, _ = run(capsys, ["link", gamma_file(TRIANGLE_333)])
    assert code == 0
    assert out.startswith("graph link {")
    assert "rank=same" in out


def test_link_json_output(gamma_file, capsys):
    code, out, _ = run(capsys, ["link", gamma_file(TRIANGLE_333), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 18
    assert len(data["edges"]) == 27


def test_orient_finds_assignment(gamma_file, capsys):
    code, out, _ = run(capsys, ["orient", gamma_file(UNORIENTED_SQUARE)])
    assert code == 0
    assert out.count("edge") == 4


def test_orient_reports_impossible(gamma_file, capsys):
    k4 = (
        "vertex a\nvertex b\nvertex c\nvertex d\n"
        "edge a b 3\nedge a c 3\nedge a d 3\n"
        "edge b c 3\nedge b d 3\nedge c d 3\n"
    )
    code, out, _ = run(capsys, ["orient", gamma_file(k4)])
    assert code == 0
    assert "no pattern-free orientation exists" in out


def test_pieces_text(gamma_file, capsys):
    code, out, _ = run(capsys, ["pieces", gamma_file(TRIANGLE_333)])
    assert code == 0
    assert out.startswith("max piece length: 1")


def test_pieces_json(gamma_file, capsys):
    code, out, _ = run(capsys, ["pieces", gamma_file(TRIANGLE_333), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["max_piece_len"] == 1


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--max-vertices", "0"),
        ("--max-vertices", "-1"),
        ("--max-vertices", "1"),
        ("--max-vertices", "6"),
        ("--max-label", "1"),
        ("--max-label", "2"),
        ("--tietze-max", "1"),
        # one above the measured bounds: never run, the battery would
        # take over a minute
        ("--max-label", str(cli.MAX_TRIANGLE_LABEL + 1)),
        ("--tietze-max", str(cli.MAX_TIETZE_LABEL + 1)),
        ("--processes", "-4"),
        ("--processes", "0"),
        ("--processes", str(os.cpu_count() + 1)),
        *(
            pytest.param(flag, DIGITS_4000, id=f"{flag}-4000-digits")
            for flag in ("--max-vertices", "--max-label", "--tietze-max", "--processes")
        ),
    ],
)
def test_verify_lemmas_flag_out_of_range_is_a_one_line_error(
    capsys, monkeypatch, flag, value
):
    # a bad flag must be refused before any battery, or any worker, starts
    def refuse(**kwargs):
        raise AssertionError("batteries.run_all called with a bad flag")

    monkeypatch.setattr(batteries, "run_all", refuse)
    code, out, err = run(capsys, ["verify-lemmas", flag, value])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err and value[:20] in err and len(err.encode()) < 200


def test_verify_lemmas_accepts_each_bound(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(batteries, "run_all", lambda **kw: seen.append(kw) or [])
    argv = [
        "verify-lemmas",
        "--max-label", str(cli.MAX_TRIANGLE_LABEL),
        "--tietze-max", str(cli.MAX_TIETZE_LABEL),
    ]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "all batteries passed\n", "")
    assert seen[0]["max_label"] == cli.MAX_TRIANGLE_LABEL
    assert seen[0]["tietze_max"] == cli.MAX_TIETZE_LABEL


def test_verify_lemmas_small(gamma_file, capsys):
    code, out, _ = run(
        capsys,
        [
            "verify-lemmas",
            "--max-label", "4",
            "--max-vertices", "4",
            "--tietze-max", "10",
            "--seed", "3",
        ],
    )
    assert code == 0
    assert "all batteries passed" in out
    assert out.count("PASS") == 5
    assert "triangle-free-b2" in out


def test_verify_lemmas_prints_failures_and_exits_one(capsys, monkeypatch):
    def oracle_case(state, n, with_girth):
        return state[0] != 1, False, True

    monkeypatch.setattr(batteries, "oracle_case", oracle_case)
    states = batteries.enumerate_oriented_states(4)
    work = states + batteries.wildcard_variants(states, 4)
    bad = [f"state={s}" for s in work if s[0] == 1]
    assert len(bad) > 20
    code, out, _ = run(capsys, ["verify-lemmas", "--tietze-max", "3", "--max-label", "3"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS two-generator-equivalences: 2/2 cases in ")
    assert lines[1].startswith("PASS triangle-girth: 1/1 cases in ")
    ok = len(work) - len(bad)
    assert lines[2].startswith(
        f"FAIL pattern-girth-oracle+wildcards: {ok}/{len(work)} cases in "
    )
    assert lines[3:23] == [f"  failed: {f}" for f in bad[:20]]
    assert lines[23].startswith("PASS triangle-free-b2: 215/215 cases in ")
    assert len(lines) == 24


def test_huge_label_is_a_fast_one_line_error(gamma_file, capsys):
    path = gamma_file("vertex a\nvertex b\nedge a b 3000000 >\n")
    start = time.perf_counter()
    for command in ("certify", "link", "loops", "pieces"):
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "3000001 generators" in err
    assert time.perf_counter() - start < 1


def test_orient_refutes_unoriented_k11_11_fast(gamma_file, capsys):
    # the bipartite count refutes it at once; the exhaustive search alone
    # takes seconds here
    text = "".join(f"vertex a{i}\nvertex b{i}\n" for i in range(11)) + "".join(
        f"edge a{i} b{j} 3\n" for i in range(11) for j in range(11)
    )
    path = gamma_file(text)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["orient", path])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (0, "no pattern-free orientation exists\n")


def test_certify_json_of_k12_12_within_a_second(gamma_file, capsys):
    # every edge a -> b: 66 * 66 type-B witnesses and 1.3 MB of JSON, in
    # 0.11-0.19 s on a 2-core x86_64 host; a cost per witness or per byte
    # that grows shows here
    text = "".join(f"vertex a{i}\nvertex b{i}\n" for i in range(12)) + "".join(
        f"edge a{i} b{j} 3 >\n" for i in range(12) for j in range(12)
    )
    path = gamma_file(text)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["certify", path, "--format", "json"])
    assert time.perf_counter() - start < 1
    kinds = [w["kind"] for w in json.loads(out)["witnesses"]]
    assert code == 0 and kinds.count("type-B") == 4356


# -- JSON output is json.dumps(obj, indent=2), byte for byte ------------------

@pytest.mark.parametrize("name", ["grid4", "grid8", "grid12", "k55", "k88",
                                  "tri345", "tri50", "tri200"])
def test_every_json_command_on_the_corpus_prints_json_dumps(gamma_file, capsys, name):
    from test_smallcancel import CORPUS

    path = gamma_file(CORPUS[name])
    gamma = load_gamma(path)
    oriented = "." not in CORPUS[name] and ">" in CORPUS[name]
    code, out, _ = run(capsys, ["certify", path, "--format", "json"])
    assert (code, out) == (0, json.dumps(certify(gamma).to_json_dict(), indent=2) + "\n")
    assignment = search_orientation(gamma)
    expected = {"orient": None if assignment is None else assignment.to_json_dict()}
    if oriented:
        link = link_of(gamma)
        table = compute_pieces(link)
        # loops up to length 4: longer ones take seconds on tri200
        loops = enumerate_short_loops(link, 4)
        expected["link"] = cli._link_json_dict(link)
        expected["loops"] = [[v.bar_name for v in lp.vertices] for lp in loops]
        expected["pieces"] = {
            "max_piece_len": table.max_piece_len,
            "pieces": [str(w) for w in table.pieces],
            "decompositions": {str(r): n for r, n in sorted(table.decompositions.items())},
        }
    for argv in (["link"], ["loops", "--max", "4"], ["orient"], ["pieces"]):
        code, out, _ = run(capsys, [argv[0], path, *argv[1:], "--format", "json"])
        if argv[0] in expected:
            assert (code, out) == (0, json.dumps(expected[argv[0]], indent=2) + "\n")
        else:  # link, loops and pieces refuse an unoriented graph
            assert (code, out) == (1, "")


CERTIFY_NAMES = st.text(st.sampled_from("ab\"\\'\u00e9\U0001f600"), min_size=1, max_size=3)


@st.composite
def certify_graphs(draw):
    """Up to six vertices as JSON, labels 2 to 5, each edge forward,
    backward, unoriented or (label 2) a wildcard."""
    names = draw(st.lists(CERTIFY_NAMES, unique=True, min_size=1, max_size=6))
    pairs = list(itertools.combinations(names, 2))
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        label = draw(st.integers(2, 5))
        ways = ["forward", "backward", "unoriented"] + ["wildcard"] * (label == 2)
        way = draw(st.sampled_from(ways))
        edges.append({"u": u, "v": v, "label": label, "orientation": way})
    return json.dumps({"vertices": names, "edges": edges})


def _json_graph(edges):
    names = sorted({x for e in edges for x in e[:2]})
    rows = [dict(zip(("u", "v", "label", "orientation"), e)) for e in edges]
    return json.dumps({"vertices": names, "edges": rows})


# an acyclic triangle (type A) and an alternating square (type B), named
# with a quote, a backslash, an apostrophe, a non-ASCII letter and an emoji
TRIANGLE_A = [('"', "\\", 3, "forward"), ("\\", "'", 3, "forward"), ('"', "'", 3, "forward")]
SQUARE_B = [("\u00e9", "a", 3, "forward"), ("b", "a", 3, "forward"),
            ("b", "\U0001f600", 3, "forward"), ("\u00e9", "\U0001f600", 2, "wildcard")]


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("certify-json")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=certify_graphs(), scheme=st.sampled_from(["auto", "a2", "b2"]))
@example(text=_json_graph(TRIANGLE_A), scheme="auto")
@example(text=_json_graph(SQUARE_B), scheme="b2")
@example(text=_json_graph(TRIANGLE_A + SQUARE_B), scheme="a2")
def test_certify_json_is_json_dumps_of_the_report(json_dir, text, scheme):
    path = json_dir / "graph.json"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["certify", str(path), "--scheme", scheme, "--format", "json"]) == 0
    report = certify(parse_gamma_json(text), scheme=cli._SCHEMES[scheme])
    assert out.getvalue() == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_parse_error_exit_code(gamma_file, capsys):
    code, _, err = run(capsys, ["certify", gamma_file("vertex a\nflurb\n")])
    assert code == 1
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["certify", "/nonexistent/file.gamma"])
    assert code == 1
    assert "error" in err


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "error: " in err
    assert "Traceback" not in err


def test_json_top_level_list_is_a_one_line_error(gamma_file, capsys):
    code, out, err = run(capsys, ["certify", gamma_file("[1, 2]", "graph.json")])
    assert_one_line_error(code, out, err)
    assert "must be an object" in err


def assert_json_parse_error(gamma_file, capsys, text, message):
    path = gamma_file(text, "graph.json")
    for command in ("certify", "link", "orient"):
        code, out, err = run(capsys, [command, path])
        assert_one_line_error(code, out, err)
        assert err.startswith("parse error: ") and message in err


def test_deeply_nested_json_is_a_one_line_error(gamma_file, capsys):
    text = "[" * 200000 + "]" * 200000
    assert_json_parse_error(gamma_file, capsys, text, "nested too deeply")


def test_json_integer_over_the_digit_limit_is_a_one_line_error(gamma_file, capsys):
    text = '{"vertices": ["a"], "edges": [], "x": ' + "9" * 5000 + "}"
    assert_json_parse_error(gamma_file, capsys, text, "4300 digits")


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"vertices": "ab", "edges": []}, "vertices must be a list"),
        ({"vertices": ["a"], "edges": {}}, "edges must be a list"),
        (
            {"vertices": ["a", "b", "c"], "edges": [], "rotations": {"a": "bc"}},
            "rotation at 'a' must be a list",
        ),
    ],
)
def test_json_non_list_field_is_a_one_line_error(gamma_file, capsys, obj, message):
    assert_json_parse_error(gamma_file, capsys, json.dumps(obj), message)


AB = {"vertices": ["a", "b"]}
AB_EDGE = {"u": "a", "v": "b", "label": 3, "orientation": "forward"}


@pytest.mark.parametrize(
    "obj,message",
    [
        (
            {**AB, "edges": [["a", "b", 3, "forward"]]},
            "edge 0 must be an object with u, v, label and orientation",
        ),
        (
            {**AB, "edges": [AB_EDGE, {"u": "a", "v": "b", "label": 3}]},
            "edge 1 must be an object with u, v, label and orientation",
        ),
        ({**AB, "edges": [{**AB_EDGE, "u": ["a"]}]}, "edge 0: u and v must be vertex names"),
        (
            {**AB, "edges": [{**AB_EDGE, "orientation": ["x"]}]},
            "edge ('a', 'b') orientation must be one of forward, backward, unoriented, "
            "wildcard, got ['x']",
        ),
        ({**AB, "edges": [], "rotations": ["a"]}, "rotations must be an object"),
        ({**AB, "edges": [], "rotations": 0}, "rotations must be an object"),
        ({**AB, "edges": [], "rotations": {"a": ["b", 3]}}, "rotations must list vertex names"),
        ({"edges": []}, "vertices must be a list, not null"),
        ({"vertices": ["a", "a"], "edges": []}, "bad graph object: duplicate vertex names"),
        ({**AB, "edges": [{**AB_EDGE, "orientation": 1}]}, "wildcard, got 1"),
        ({**AB, "edges": [{**AB_EDGE, "orientation": {}}]}, "wildcard, got {}"),
        ({**AB, "edges": [{**AB_EDGE, "orientation": "FORWARD"}]}, "got 'FORWARD'"),
    ],
)
def test_json_malformed_field_is_named_in_the_error(gamma_file, capsys, obj, message):
    assert_json_parse_error(gamma_file, capsys, json.dumps(obj), message)


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"vertices": ["a"], "edges": [], "vertices": ["a", "b"]}', "vertices"),
        (
            '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "label": 3, '
            '"orientation": "forward", "label": 4}]}',
            "label",
        ),
    ],
)
def test_json_key_given_twice_is_a_one_line_error(gamma_file, capsys, text, key):
    # json.loads alone keeps the last value and certify exits 0
    assert_json_parse_error(gamma_file, capsys, text, f"duplicate key {key!r}")


def test_directory_as_graph_path_is_a_one_line_error(tmp_path, capsys):
    code, out, err = run(capsys, ["certify", str(tmp_path)])
    assert_one_line_error(code, out, err)
    assert "Is a directory" in err


@pytest.mark.parametrize("label", ["3_0", "\u0663", "\uff13", "+3", "3.0"])
def test_label_is_ascii_digits_only(gamma_file, capsys, label):
    # int() would read "3_0" as 30 and the Arabic-Indic and fullwidth threes as 3
    text = f"vertex a\nvertex c\nedge a c {label} >\n"
    code, out, err = run(capsys, ["certify", gamma_file(text)])
    assert_one_line_error(code, out, err)
    assert err == f"parse error: line 3: label must be an integer: {label!r}\n"


@pytest.mark.parametrize(
    "label,message",
    [
        ("9" * 5000, "label is too long: '99999999999999999999'... (5000 characters)"),
        ("9x" * 2500, "label must be an integer: '9x9x9x9x9x9x9x9x9x9x'... (5000 characters)"),
    ],
)
def test_long_label_is_cut_in_its_error(gamma_file, capsys, label, message):
    # int() refuses more than 4300 digits; the line names 20 characters
    path = gamma_file(f"vertex a\nvertex c\nedge a c {label} >\n")
    code, out, err = run(capsys, ["certify", path])
    assert_one_line_error(code, out, err)
    assert err == f"parse error: line 3: {message}\n"


def test_negative_label_reaches_the_edge_check(gamma_file, capsys):
    code, out, err = run(capsys, ["certify", gamma_file("vertex a\nvertex c\nedge a c -3 >\n")])
    assert_one_line_error(code, out, err)
    assert err == "parse error: line 3: edge label must be an integer >= 2, got -3\n"


@pytest.mark.parametrize("name", ["graph.gamma", "graph.json"])
def test_long_negative_label_is_cut_in_its_error(gamma_file, capsys, name):
    label = "-" + "9" * 4000
    text = (
        f"vertex a\nvertex c\nedge a c {label} >\n"
        if name == "graph.gamma"
        else _json_graph([("a", "c", "LABEL", "forward")]).replace('"LABEL"', label)
    )
    code, out, err = run(capsys, ["certify", gamma_file(text, name)])
    assert_one_line_error(code, out, err)
    assert len(err) < 200 and err.endswith(
        "edge label must be an integer >= 2, got -9999999999999999999... (4001 characters)\n"
    )


N = "n" * 5000  # a valid vertex name
N_EDGE = {"u": "a", "v": N, "label": 3, "orientation": "forward"}


@pytest.mark.parametrize(
    "text,obj,commands",
    [
        (f"vertex a\nedge a {N} 3 >\n", {"vertices": ["a"], "edges": [N_EDGE]}, ["certify"]),
        (
            f"vertex a\nvertex {N}\nedge a {N} 3 >\nedge {N} a 3 <\n",
            {"vertices": ["a", N], "edges": [N_EDGE, N_EDGE]},
            ["certify"],
        ),
        (
            f"vertex {N}\nedge {N} {N} 3 >\n",
            {"vertices": [N], "edges": [{**N_EDGE, "u": N}]},
            ["certify"],
        ),
        (f"vertex a\nrot {N}: a\n", {"vertices": ["a"], "rotations": {N: ["a"]}}, ["certify"]),
        (f"vertex a\nvertex {N}\nedge a {N} 3 >\nrot {N}: a\nrot {N}: a\n", None, ["certify"]),
        (
            f"vertex a\nvertex {N}\nedge a {N} 3\n",
            {"vertices": ["a", N], "edges": [{**N_EDGE, "orientation": "unoriented"}]},
            ["link", "loops", "pieces"],
        ),
        (
            f"vertex {'m' * 5000}\nvertex {N}\nedge {'m' * 5000} {N} 3\n",
            {"vertices": ["m" * 5000, N],
             "edges": [{**N_EDGE, "u": "m" * 5000, "orientation": "unoriented"}]},
            ["link", "loops", "pieces"],
        ),
        (
            f"vertex a\nvertex b\nvertex {N}\nedge a {N} 3 >\nrot {N}: b\n",
            {"vertices": ["a", "b", N], "edges": [N_EDGE], "rotations": {N: ["b"]}},
            ["certify"],
        ),
        (
            f"vertex a\nvertex {N}\nedge a {N} 3 ?\n",
            {"vertices": ["a", N], "edges": [{**N_EDGE, "orientation": "wildcard"}]},
            ["certify"],
        ),
        (None, {"vertices": ["a", N], "edges": [{**N_EDGE, "orientation": 1}]}, ["certify"]),
        (None, {**AB, "edges": [{**AB_EDGE, "orientation": N}]}, ["certify"]),
        (None, {"vertices": ["a", N], "edges": [], "rotations": {N: "a"}}, ["certify"]),
    ],
    ids=[
        "undeclared-vertex",
        "multiple-edges",
        "loop-edge",
        "rotation-at-undeclared-vertex",
        "second-rotation",
        "no-direction",
        "no-direction-two-names",
        "rotation-not-the-neighbours",
        "wildcard-label",
        "orientation-value",
        "long-orientation-value",
        "rotation-not-a-list",
    ],
)
def test_long_name_is_cut_in_every_graph_error(gamma_file, capsys, text, obj, commands):
    # each message names at most 20 characters of a name or value
    inputs = [(text, "graph.gamma"), (obj and json.dumps(obj), "graph.json")]
    for path in [gamma_file(t, name) for t, name in inputs if t]:
        for command in commands:
            code, out, err = run(capsys, [command, path])
            assert_one_line_error(code, out, err)
            assert len(err.encode()) < 200 and "... (5000 characters)" in err


def test_long_label_past_the_generator_cap_is_cut_in_its_error(gamma_file, capsys):
    path = gamma_file(f"vertex a\nvertex b\nedge a b {'9' * 4000} >\n")
    code, out, err = run(capsys, ["certify", path])
    assert_one_line_error(code, out, err)
    assert err == (
        "error: the triangular presentation would have 10000000000000000000... "
        "(4001 characters) generators, over the limit of 30000\n"
    )


def test_long_vertex_name_is_cut_in_its_error(gamma_file, capsys):
    name = "{" + "a" * 4998 + "}"
    code, out, err = run(capsys, ["certify", gamma_file(f"vertex {name}\n")])
    assert_one_line_error(code, out, err)
    assert len(err) < 200 and err.startswith(
        "parse error: line 1: vertex name '{aaaaaaaaaaaaaaaaaaa'... (5000 characters) must be"
    )


def test_long_duplicate_vertex_is_cut_in_its_error(gamma_file, capsys):
    code, out, err = run(capsys, ["certify", gamma_file(f"vertex {'a' * 5000}\n" * 2)])
    assert_one_line_error(code, out, err)
    assert err == "parse error: line 2: duplicate vertex 'aaaaaaaaaaaaaaaaaaaa'... (5000 characters)\n"


def test_vertex_named_like_a_hub_is_a_one_line_error(gamma_file, capsys):
    text = "vertex a\nvertex b\nvertex x_{a,b}\nedge a b 3 >\n"
    code, out, err = run(capsys, ["certify", gamma_file(text)])
    assert_one_line_error(code, out, err)
    assert "line 3:" in err and "x_{a,b}" in err


def test_vertex_named_like_a_tail_is_a_one_line_error(gamma_file, capsys):
    text = "vertex a\nvertex a_bar\nedge a a_bar 3 >\n"
    code, out, err = run(capsys, ["link", gamma_file(text), "--format", "text"])
    assert_one_line_error(code, out, err)
    assert "line 2:" in err and "a_bar" in err


@pytest.mark.parametrize("command", ["orient", "certify"])
def test_vertex_names_that_would_share_an_edge_key_are_a_one_line_error(
    gamma_file, capsys, command
):
    # edges a -- b--c and a--b -- c would both be keyed "a--b--c" in JSON
    text = "vertex a\nvertex b--c\nvertex a--b\nvertex c\nedge a b--c 3 >\nedge a--b c 3 >\n"
    code, out, err = run(capsys, [command, gamma_file(text), "--format", "json"])
    assert_one_line_error(code, out, err)
    assert err.startswith("parse error: line 2: vertex name 'b--c' must be")
    text = "vertex a-\nvertex b\nedge a- b 3 >\n"  # a---b splits as a, -b
    code, out, err = run(capsys, [command, gamma_file(text), "--format", "json"])
    assert_one_line_error(code, out, err)
    assert err.startswith("parse error: line 1: vertex name 'a-' must be")


def test_vertex_name_with_caret_or_space_is_a_one_line_error(gamma_file, capsys):
    # `a^-1` would print like the inverse of `a`, and `a b` like two names
    text = "vertex a\nvertex a^-1\nedge a a^-1 3 >\n"
    code, out, err = run(capsys, ["pieces", gamma_file(text)])
    assert_one_line_error(code, out, err)
    assert "line 2:" in err and "'a^-1'" in err
    obj = {"vertices": ["a b", "c"], "edges": []}
    code, out, err = run(capsys, ["link", gamma_file(json.dumps(obj), "graph.json")])
    assert_one_line_error(code, out, err)
    assert "'a b'" in err and "whitespace" in err


@pytest.mark.parametrize("name", ["a\x00b", "\x01", "a\x7f"])
def test_vertex_name_with_a_control_character_is_a_one_line_error(
    gamma_file, capsys, name
):
    # the text output would print it raw
    code, out, err = run(capsys, ["certify", gamma_file(f"vertex {name}\n")])
    assert_one_line_error(code, out, err)
    assert err.startswith(f"parse error: line 1: vertex name {name!r} must be")


def test_binary_file_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "graph.gamma"
    path.write_bytes(b"\xff\xfe vertex a\n")
    code, out, err = run(capsys, ["certify", str(path)])
    assert_one_line_error(code, out, err)
    assert "UTF-8" in err


@pytest.mark.parametrize("line", ["rot a b", "rot"])
def test_malformed_rotation_line_is_a_one_line_error(gamma_file, capsys, line):
    text = f"vertex a\nvertex b\nedge a b 3 >\n{line}\n"
    code, out, err = run(capsys, ["certify", gamma_file(text)])
    assert_one_line_error(code, out, err)
    assert err == "parse error: line 4: expected: rot <v>: <n1> <n2> ...\n"


@pytest.mark.parametrize("line", ["edge a b", "edge a b 3 > extra"])
def test_malformed_edge_line_is_a_one_line_error(gamma_file, capsys, line):
    code, out, err = run(capsys, ["certify", gamma_file(f"vertex a\nvertex b\n{line}\n")])
    assert_one_line_error(code, out, err)
    assert err == "parse error: line 3: expected: edge <u> <v> <label> [> < ? .]\n"


def test_internal_inconsistency_is_a_one_line_error(gamma_file, capsys, monkeypatch):
    from artinlink import InternalInconsistencyError

    def broken(gamma, scheme):
        raise InternalInconsistencyError("no least loop through its start")

    monkeypatch.setattr(cli, "certify", broken)
    code, out, err = run(capsys, ["certify", gamma_file(TRIANGLE_333)])
    assert (code, out) == (1, "")
    assert err == "internal inconsistency: no least loop through its start\n"


def test_graph_level_error_reports_the_edge_line(gamma_file, capsys):
    text = "vertex a\nvertex b\nedge a b 3 >\nedge a c 3 >\n"
    code, out, err = run(capsys, ["certify", gamma_file(text)])
    assert_one_line_error(code, out, err)
    assert "line 4: edge ('a', 'c') uses undeclared vertices" in err


def test_loops_on_unoriented_input_suggests_orient(gamma_file, capsys):
    code, _, err = run(capsys, ["loops", gamma_file(UNORIENTED_SQUARE)])
    assert code == 1
    assert "artinlink orient" in err


def test_json_input_accepted(gamma_file, capsys):
    obj = {
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "label": 3, "orientation": "forward"}],
        "rotations": None,
    }
    code, out, _ = run(
        capsys,
        ["certify", gamma_file(json.dumps(obj), "graph.json"), "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "NonPositivelyCurved"


def test_cli_json_round_trips(gamma_file, capsys):
    _, out, _ = run(capsys, ["certify", gamma_file(TRIANGLE_245), "--format", "json"])
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_output_is_deterministic(gamma_file, capsys):
    path = gamma_file(TRIANGLE_245)
    _, out1, _ = run(capsys, ["certify", path, "--format", "json"])
    _, out2, _ = run(capsys, ["certify", path, "--format", "json"])
    assert out1 == out2
    _, dot1, _ = run(capsys, ["link", path])
    _, dot2, _ = run(capsys, ["link", path])
    assert dot1 == dot2


def test_thirty_thousand_rotated_vertices_certify_within_three_seconds(
    gamma_file, capsys
):
    # at the generator cap; a duplicate or rotation check that scans the
    # vertices makes parsing quadratic (14 s on a 2-core x86-64 host)
    n = 30_000
    text = "".join(f"vertex v{i}\n" for i in range(n))
    path = gamma_file(text + "".join(f"rot v{i}:\n" for i in range(n)))
    start = time.perf_counter()
    code, out, err = run(capsys, ["certify", path, "--format", "json"])
    assert time.perf_counter() - start < 3
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "NonPositivelyCurved"


# -- one argparse tree per process --------------------------------------------

SUBCOMMANDS = ["certify", "link", "loops", "orient", "pieces", "verify-lemmas"]


def test_main_builds_one_parser_tree(gamma_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    path = gamma_file(TRIANGLE_333)
    assert run(capsys, ["certify", path])[0] == 0
    assert run(capsys, ["loops", path, "--max", "4"])[0] == 0
    assert len(built) == 1 + len(SUBCOMMANDS)


def test_importing_the_cli_builds_its_parser_tree():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import artinlink.cli as c; print(c._build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_certify_loads_neither_multiprocessing_nor_random(gamma_file):
    # only verify-lemmas imports batteries, and with it the pool; -S
    # keeps site hooks, which may import random themselves, out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = (
        "import sys, artinlink.cli as c\n"
        f"assert c.main(['certify', {gamma_file(TRIANGLE_333)!r}]) == 0\n"
        "print(sorted({'multiprocessing', 'random'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "[]")


def test_a_flag_value_does_not_leak_into_the_next_call(gamma_file, capsys, monkeypatch):
    seen = []
    for command in SUBCOMMANDS:
        row = cli._COMMANDS[command]._replace(run=lambda args: seen.append(args) or 0)
        monkeypatch.setitem(cli._COMMANDS, command, row)
    path = gamma_file(TRIANGLE_245)
    for argv in (
        ["certify", path, "--scheme", "a2", "--format", "json"],
        ["certify", path],
        ["loops", path, "--max", "4", "--format", "json"],
        ["loops", path],
        ["verify-lemmas", "--seed", "3", "--processes", "1"],
        ["verify-lemmas"],
    ):
        assert main(argv) == 0
    plain = [vars(args) for args in seen[1::2]]
    assert plain == [
        {"command": "certify", "input": path, "scheme": "auto", "format": "text"},
        {"command": "loops", "input": path, "max": 6, "format": "text"},
        {"command": "verify-lemmas", "max_label": 5, "max_vertices": 4,
         "tietze_max": 50, "seed": None, "processes": None},
    ]


@pytest.mark.parametrize(
    "argv",
    [[], ["certify"], ["certify", "g", "--scheme", "c3"], ["loops", "g", "--max", "x"],
     ["flurb"], ["pieces", "g", "--bogus"]],
)
def test_an_argparse_error_leaves_the_next_call_working(gamma_file, capsys, argv):
    path = gamma_file(TRIANGLE_245)
    good = run(capsys, ["certify", path, "--format", "json"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr()
    assert exc.value.code == 2 and err.out == "" and err.err.startswith("usage: ")
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv)
    assert capsys.readouterr() == err  # as from a freshly built tree
    assert run(capsys, ["certify", path, "--format", "json"]) == good


NINES, X = "9" * 5000, "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [["loops", "g", "--max", NINES], ["verify-lemmas", "--seed", NINES],
     ["verify-lemmas", "--tietze-max", NINES], ["certify", "g", "--scheme", X],
     ["link", "g", "--format", X], [X], ["pieces", "g", "--" + X], ["orient", "g", X]],
    ids=["max", "seed", "tietze-max", "scheme", "format", "command", "option", "positional"],
)
def test_an_argparse_error_cuts_a_long_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: artinlink") and "Traceback" not in err
    assert max(len(line.encode()) for line in err.splitlines()) <= 200


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_is_that_of_a_freshly_built_parser(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    fresh = cli._build_parser.__wrapped__()
    with pytest.raises(SystemExit) as exc:
        fresh.parse_args(argv)
    expected = capsys.readouterr()
    assert exc.value.code == 0 and expected.out.startswith("usage: artinlink")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr() == expected


def test_subcommands_are_those_of_the_command_table():
    # the help, leak and echo tests above cover a new subcommand too
    assert SUBCOMMANDS == list(cli._COMMANDS)


HELP = os.path.join(os.path.dirname(__file__), "golden", "help")


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width, read from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    with open(os.path.join(HELP, f"{command or 'artinlink'}.txt"), encoding="utf-8") as fh:
        assert (exc.value.code, capsys.readouterr()) == (0, (fh.read(), ""))


# -- python -m artinlink ------------------------------------------------------


def python_m_artinlink(*argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "artinlink", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_python_m_artinlink_reports_a_malformed_file_in_one_line(gamma_file):
    proc = python_m_artinlink("certify", gamma_file("vertex a\nvertex a\n"))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"parse error: line 2: duplicate vertex 'a'\n"


def test_python_m_artinlink_cuts_a_5000_digit_label_to_a_short_line(gamma_file):
    text = f"vertex a\nvertex b\nedge a b {'9' * 5000} >\n"
    proc = python_m_artinlink("certify", gamma_file(text))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 200
    assert proc.stderr == (
        b"parse error: line 3: label is too long: '99999999999999999999'... "
        b"(5000 characters)\n"
    )


# the count of a 4,300-nines label has 4,301 digits, one past what str() writes
CAP_LABEL = "9" * 4300


@pytest.mark.parametrize("name,text", [
    ("graph.gamma", f"vertex a\nvertex b\nedge a b {CAP_LABEL} >\n"),
    ("graph.json", _json_graph([("a", "b", "LABEL", "forward")]).replace('"LABEL"', CAP_LABEL)),
])
def test_python_m_artinlink_cuts_a_4301_digit_generator_count(gamma_file, name, text):
    path = gamma_file(text, name)
    for command in ("certify", "link", "loops", "pieces"):
        proc = python_m_artinlink(command, path)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 200
        assert proc.stderr == (
            b"error: the triangular presentation would have 10000000000000000000... "
            b"(4301 characters) generators, over the limit of 30000\n"
        )


def test_python_m_artinlink_prints_what_main_prints(gamma_file, capsys):
    from test_smallcancel import CORPUS

    path = gamma_file(CORPUS["tri345"])
    code, out, err = run(capsys, ["certify", path, "--format", "json"])
    proc = python_m_artinlink("certify", path, "--format", "json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
    assert (code, err) == (0, "")
