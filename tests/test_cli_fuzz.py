"""Fuzzed input boundary: any file or argv ends in exit 0, exit 1 with
one line on stderr, or argparse's exit 2 after its usage, with every
stderr line at most ``MAX_LINE_BYTES`` and never a traceback."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from artinlink import HEAD, TAIL, OrientationAssignment, build_triangular, cli, link_of
from artinlink.cli import main
from artinlink.gamma_io import parse_gamma_json
from artinlink.presentations import check_vertex_name

COMMANDS = ("certify", "link", "orient", "pieces")
MAX_LINE_BYTES = 200

NAMES = ("a", "b", "c", "d", "e")
# valid names of 1,000 to 5,000 characters, of 1 to 4 UTF-8 bytes each,
# some of them (U+1D49D is unassigned) written by ``repr`` as 10-byte escapes
LONG_NAMES = st.builds(
    "{}{}".format,
    st.sampled_from(NAMES),
    st.builds(
        str.__mul__,
        st.sampled_from(["m", "\u00e9", "\u0436\U0001d49c", "\U0001d49c", "\U0001d49d"]),
        st.integers(1000, 5000),
    ),
).map(lambda name: name[:5000])
# junk names, with braces, commas, carets, dashes, comment marks, ASCII
# and Unicode blanks (some of them line breaks to ``str.splitlines``,
# but not to the parser, which breaks lines at "\n" only),
# non-ASCII letters, ``_bar`` suffixes and long valid names
TOKENS = (
    st.sampled_from(NAMES)
    | LONG_NAMES
    | st.text(
        alphabet="ab{},#:x_^- \t\x1c\x85\u2003\u2028\u00e9\u03b1\u0436",
        min_size=1,
        max_size=4,
    )
    | st.builds("{}_bar".format, st.sampled_from(NAMES + ("\u03b1", "_bar", "")))
)
# labels stay small: a label near the generator cap takes seconds to certify
LABELS = st.integers(2, 50)
SYMBOLS = st.sampled_from([">", "<", ">", "<", "?", ".", ""])
ORIENTATIONS = st.sampled_from(["forward", "backward", "forward", "wildcard", "unoriented"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def graphs(draw):
    """(vertices, edges as (u, v, label), rotations), well formed so
    that the commands get past parsing."""
    vertices = draw(st.lists(st.sampled_from(NAMES) | LONG_NAMES, unique=True, max_size=5))
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    edges = [(u, v, draw(LABELS)) for u, v in chosen]
    rotations = {}
    for v in draw(st.lists(st.sampled_from(vertices), unique=True)) if vertices else []:
        around = [w for e in chosen for w in e if v in e and w != v]
        rotations[v] = draw(st.permutations(around))
    return vertices, edges, rotations


JUNK_LINES = st.one_of(
    st.builds(lambda v: f"vertex {v}", TOKENS),
    st.builds(
        lambda u, v, label, d: f"edge {u} {v} {label} {d}",
        TOKENS,
        TOKENS,
        st.integers(-1, 50) | TOKENS,
        SYMBOLS | TOKENS,
    ),
    st.builds(lambda v, ns: f"rot {v}: " + " ".join(ns), TOKENS, st.lists(TOKENS, max_size=4)),
    st.text(max_size=20),
)


@st.composite
def text_files(draw):
    vertices, edges, rotations = draw(graphs())
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {u} {v} {label} {draw(SYMBOLS)}" for u, v, label in edges]
    lines += [f"rot {v}: " + " ".join(order) for v, order in rotations.items()]
    lines += draw(st.lists(JUNK_LINES, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@st.composite
def json_files(draw):
    vertices, edges, rotations = draw(graphs())
    obj = {
        "vertices": vertices,
        "edges": [
            {"u": u, "v": v, "label": label, "orientation": draw(ORIENTATIONS)}
            for u, v, label in edges
        ],
        "rotations": {v: list(order) for v, order in rotations.items()} or None,
    }
    # corrupt a few fields, at the top level or inside one edge
    targets = [obj] + obj["edges"]
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(targets))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return json.dumps(obj)


TEXT_FILES = text_files() | st.text(max_size=60)
JSON_FILES = json_files() | JSON_VALUES.map(json.dumps) | st.text(max_size=60)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv, code, message):
    """The boundary's invariant, stated once.  Lines are split at newlines
    only, as a terminal breaks them."""
    lines = message.split("\n")
    assert "Traceback" not in message, argv
    assert max(len(line.encode()) for line in lines) <= MAX_LINE_BYTES, (argv, message)
    if code == 2:
        assert message.startswith("usage: artinlink"), (argv, message)
    else:
        assert code in (0, 1), (argv, code, message)
        assert len(lines) <= 2 and (code == 0 or message), (argv, message)


def assert_clean_exit(path):
    for command in COMMANDS:
        code, _, message = run_main([command, str(path)])
        assert code != 2
        assert_clean([command, path], code, message)


FUZZ_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


LONG_M, LONG_N = "m" * 5000, "n" * 5000
# 4-byte characters, printable (U+1D49C) or written by ``repr`` as 10-byte
# escapes (U+1D49D, unassigned)
LONG_A, LONG_B, LONG_X = "\U0001d49c" * 5000, "\U0001d49c" * 4999 + "b", "\U0001d49d" * 5000


@FUZZ_SETTINGS
@given(text=TEXT_FILES)
# two cut names and the orient hint in one line
@example(text=f"vertex {LONG_M}\nvertex {LONG_N}\nedge {LONG_M} {LONG_N} 3\n")
# names cut to a byte budget: an undeclared escaped one, two printable
# ones and one of each (282, 296 and 416 bytes when cut to 20 characters)
@example(text=f"vertex a\nedge a {LONG_X} 3 >\n")
@example(text=f"vertex {LONG_A}\nvertex {LONG_B}\nedge {LONG_A} {LONG_B} 3\n")
@example(text=f"vertex {LONG_A}\nvertex {LONG_X}\nedge {LONG_A} {LONG_X} 3\n")
def test_fuzzed_line_format_files_exit_cleanly(fuzz_dir, text):
    path = fuzz_dir / "graph.gamma"
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(path)


@FUZZ_SETTINGS
@given(text=JSON_FILES)
def test_fuzzed_json_files_exit_cleanly(fuzz_dir, text):
    path = fuzz_dir / "graph.json"
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(path)


@FUZZ_SETTINGS
@given(data=st.binary(max_size=40), suffix=st.sampled_from([".gamma", ".json"]))
def test_fuzzed_bytes_exit_cleanly(fuzz_dir, data, suffix):
    path = fuzz_dir / f"graph{suffix}"
    path.write_bytes(data)
    assert_clean_exit(path)


def _is_vertex_name(name):
    try:
        check_vertex_name(name)
    except ValueError:
        return False
    return True


@st.composite
def named_json_graphs(draw):
    """An oriented graph on valid names drawn from ``TOKENS``, as JSON:
    a name may hold "#" or ":", which the line format would read apart."""
    names = TOKENS.filter(_is_vertex_name)
    vertices = draw(st.lists(names, unique=True, min_size=2, max_size=4))
    pairs = list(itertools.combinations(vertices, 2))
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=4)):
        label = draw(st.integers(2, 6))
        ways = ["forward", "backward"] + ["wildcard"] * (label == 2)
        edges.append({"u": u, "v": v, "label": label, "orientation": draw(st.sampled_from(ways))})
    return json.dumps({"vertices": vertices, "edges": edges})


def _stdout_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue().splitlines()


@FUZZ_SETTINGS
@given(text=named_json_graphs())
def test_printed_vertex_names_map_back_to_one_generator(fuzz_dir, text):
    path = fuzz_dir / "named.json"
    path.write_text(text, encoding="utf-8")
    graph = parse_gamma_json(text)
    gens = build_triangular(graph).generators

    def owners(name):
        return [
            (g, end)
            for g in gens
            for end, shown in ((HEAD, g), (TAIL, f"{g}_bar"))
            if shown == name
        ]

    # "<a> -- <b>  [<kind>, piece <hub>]" per edge, after a count line
    link_lines = _stdout_lines(["link", str(path), "--format", "text"])
    names = [w for line in link_lines[1:] for w in line.split()[:3:2]]
    vertex_count, _, edge_count, _ = link_lines[0].split()
    assert len(names) == 2 * int(edge_count)
    for name in names:
        assert len(owners(name)) == 1, name
    # and each vertex on an edge has its own name
    assert int(vertex_count) == 2 * len(gens)
    assert len(set(names)) == sum(map(bool, link_of(graph).nbrs))
    # "piece: <word>" and "relator <word>: <n> pieces", "^-1" marking an inverse
    letters = []
    for line in _stdout_lines(["pieces", str(path)])[1:]:
        kind, _, rest = line.partition(" ")
        words = rest if kind == "piece:" else rest.rpartition(": ")[0]
        letters += [w.removesuffix("^-1") for w in words.split()]
    assert letters
    for letter in letters:
        assert owners(letter) == [(letter, HEAD)], letter


@FUZZ_SETTINGS
@given(pair=st.lists(TOKENS.filter(_is_vertex_name), unique=True, min_size=2, max_size=2))
@example(pair=["a--b", "c"])
@example(pair=["a-", "b"])
@example(pair=["a-b", "-c"])
def test_edge_keys_of_valid_names_split_at_their_first_dashes(pair):
    if not all(map(_is_vertex_name, pair)):
        return  # refused at the input boundary, as the examples with "--" are
    u, v = sorted(pair)
    (key,) = OrientationAssignment({(u, v): "forward"}).to_json_dict()
    assert key.split("--", 1) == [u, v]


# -- argv ---------------------------------------------------------------------

GRAPH = "<graph>"  # stands for a small oriented graph file
# 1 to 5,000 characters, some of them 2 to 4 bytes in UTF-8
ARG_TOKENS = st.text(alphabet="ab9-=_ \téж\U0001d49c", min_size=1, max_size=5) | (
    st.integers(1, 5000).flatmap(
        lambda n: st.text(alphabet="x-é\U0001d49c", min_size=n, max_size=n)
    )
)
# up to 5,000 digits, often past the 4,300 that int() takes
INT_TOKENS = st.integers(-3, 40).map(str) | st.builds(
    "{}{}".format,
    st.sampled_from(["", "-"]),
    (st.integers(1, 5000) | st.integers(4300, 5000)).flatmap(
        lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n)
    ),
)


def _flag_values(keywords):
    """Tokens, plus ints for an int flag and the choices of a choice flag."""
    values = ARG_TOKENS
    if keywords.get("type") is int:
        values |= INT_TOKENS
    if "choices" in keywords:
        values |= st.sampled_from(keywords["choices"])
    return values


@st.composite
def argvs(draw):
    """An argv over the command table: a subcommand or a token, the input
    or a token, the subcommand's flags with drawn values, a stray token."""
    name = draw(st.sampled_from([*cli._COMMANDS, None])) or draw(ARG_TOKENS)
    argv = [name]
    command = cli._COMMANDS.get(name)
    if command is not None:
        if command.input is not None and draw(st.integers(0, 4)):
            argv.append(draw(st.just(GRAPH) | ARG_TOKENS))
        flags = list(command.flags)
        if command.formats:
            flags.append(("--format", {"choices": command.formats}))
        for flag, keywords in draw(st.lists(st.sampled_from(flags), max_size=3)):
            argv += [flag, draw(_flag_values(keywords))]
    return argv + draw(st.lists(ARG_TOKENS, max_size=1))


@settings(FUZZ_SETTINGS, max_examples=300)
@given(argv=argvs())
@example(argv=["loops", GRAPH, "--max", "9" * 5000])  # past int()'s digit limit
@example(argv=["verify-lemmas", "--seed", "9" * 5000])
def test_fuzzed_argv_exits_cleanly(fuzz_dir, argv):
    path = fuzz_dir / "argv.gamma"
    path.write_text("vertex a\nvertex b\nvertex c\nedge a b 2 ?\nedge b c 4 >\nedge c a 5 >\n")
    argv = [str(path) if arg == GRAPH else arg for arg in argv]
    with pytest.MonkeyPatch.context() as patch:  # the batteries would run for seconds
        row = cli._COMMANDS["verify-lemmas"]._replace(run=lambda args: 0)
        patch.setitem(cli._COMMANDS, "verify-lemmas", row)
        code, _, message = run_main(argv)
    assert_clean(argv, code, message)


# -- the library boundary ------------------------------------------------------

# bad values for one slot of a call: long text of 1- to 4-byte characters,
# escaped ones and NULs, or ints of up to 5,000 digits
BAD_VALUES = st.builds(
    str.__mul__,
    st.sampled_from(["9", "x", "é", "\U0001d49c", "\U0001d49d", "\x00"]),
    st.integers(1000, 5000),
) | st.builds(lambda digits: -(10**digits), st.integers(1, 5000))


def _library_errors(u, v, bad):
    """Calls that each raise an error naming the vertex names ``u`` and
    ``v`` (``u < v``, neither of them f to j) or the bad value ``bad``,
    one for each message of the library's entry points."""
    from artinlink import (
        DefiningGraph,
        GammaEdge,
        assign_metric,
        certify,
        orient_from_rotation_system,
        resolve_orientations,
        trace_faces,
    )

    edge = DefiningGraph([u, v], [(u, v, 3, ">")])
    star = DefiningGraph([u, v, "f", "g"], [(u, v, 3), (u, "f", 3), (u, "g", 3)])
    triangle = DefiningGraph([u, v, "g"], [(u, v, 3, ">"), (v, "g", 3), (u, "g", 3)])
    # a bowtie on the torus: its one face borders every edge twice
    torus = DefiningGraph(
        (u, v, "h", "i", "j"),
        [(u, v, 3), (u, "h", 3), (v, "h", 3), (u, "i", 3), (u, "j", 3), ("i", "j", 3)],
        rotations={u: (v, "i", "h", "j")},
    )
    return [
        lambda: GammaEdge(v, v, 3),
        lambda: GammaEdge(v, u, bad),
        lambda: GammaEdge(v, u, 3, bad),
        lambda: GammaEdge(v, u, 3, "wildcard"),
        lambda: DefiningGraph([v, u, v]),
        lambda: DefiningGraph([v + "{}"]),
        lambda: DefiningGraph([bad, bad]),
        lambda: DefiningGraph([v], [(v, u, 3)]),
        lambda: DefiningGraph([u, v], [(u, v, 3), (v, u, 3)]),
        lambda: DefiningGraph([u, v], [(u, v, 3)], {bad: [u]}),
        lambda: DefiningGraph([u, v], [(u, v, 3)], {v: [v]}),
        lambda: OrientationAssignment({(u, v): bad}),
        lambda: OrientationAssignment({(v, u): "forward"}),
        lambda: resolve_orientations(star, {}),
        lambda: resolve_orientations(edge, {(u, v): "forward"}),
        lambda: certify(edge, bad),
        lambda: assign_metric(link_of(edge), bad),
        lambda: trace_faces(star),
        lambda: orient_from_rotation_system(edge),
        lambda: orient_from_rotation_system(triangle),
        lambda: orient_from_rotation_system(torus),
    ]


CALLS = len(_library_errors("a", "b", 0))


@settings(FUZZ_SETTINGS, max_examples=200)
@given(
    names=st.lists(st.sampled_from(NAMES) | LONG_NAMES, min_size=2, max_size=2, unique=True),
    bad=BAD_VALUES,
    call=st.integers(0, CALLS - 1),
)
@example(names=["\U0001d49c" * 5000, "\U0001d49d" * 5000], bad="\U0001d49d" * 5000, call=8)
def test_library_errors_name_long_values_in_one_short_line(names, bad, call):
    u, v = sorted(names)
    with pytest.raises((ValueError, TypeError)) as raised:
        _library_errors(u, v, bad)[call]()
    text = str(raised.value)
    assert "\n" not in text and len(text.encode()) <= MAX_LINE_BYTES, (call, text)
