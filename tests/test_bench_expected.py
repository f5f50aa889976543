"""What the benchmark reads from the package, checked in Tier-1.

``bench/expected/<graph>.json`` holds the stdout of ``artinlink certify
<graph> --format json`` for each graph of ``bench/workloads.py``'s
corpus; the benchmark treats any difference as a failure.  These tests
run the same check at test sizes, and check that every layer the
tracer of ``bench/tracer.py`` wraps still exists.  They only read
``bench/``.
"""

import contextlib
import importlib
import io
import os
import sys

import pytest

from artinlink import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name: str):
    """``bench/<name>.py``, imported without writing bytecode into
    ``bench/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved


CORPUS = _bench_module("workloads").corpus_texts()


def test_the_corpus_has_eight_graphs_each_with_an_expected_output():
    assert len(CORPUS) == 8
    for name in CORPUS:
        assert os.path.isfile(os.path.join(BENCH, "expected", f"{name}.json"))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_certify_output_matches_the_bench_expected_bytes(tmp_path, name):
    path = tmp_path / f"{name}.gamma"
    path.write_text(CORPUS[name], encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["certify", str(path), "--format", "json"])
    assert code == 0
    with open(os.path.join(BENCH, "expected", f"{name}.json"), "rb") as fh:
        expected = fh.read()
    assert out.getvalue().encode("utf-8") == expected


def test_every_traced_layer_is_a_function_of_the_package():
    tracer = _bench_module("tracer")
    assert len(tracer.TRACED) == len(set(tracer.TRACED))
    for name in tracer.TRACED:
        module_name = name.split(".")[0]
        importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner, attr = tracer._resolve(name)
        # the tracer wraps the attribute the owner itself holds
        original = vars(owner).get(attr)
        assert callable(original), name
        assert original.__module__ == f"{tracer.PACKAGE}.{module_name}", name
