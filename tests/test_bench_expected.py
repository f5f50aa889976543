"""The certify output of the benchmark corpus, byte for byte.

``bench/expected/<graph>.json`` holds the stdout of ``artinlink certify
<graph> --format json`` for each graph of ``bench/workloads.py``'s
corpus; the benchmark treats any difference as a failure.  This test
runs the same check at test sizes and only reads ``bench/``.
"""

import contextlib
import io
import os
import sys

import pytest

from artinlink import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _corpus_texts() -> dict[str, str]:
    """``bench/workloads.corpus_texts()``, imported without writing
    bytecode into ``bench/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return workloads.corpus_texts()


CORPUS = _corpus_texts()


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
