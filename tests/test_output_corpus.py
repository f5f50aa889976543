"""CLI output pinned byte for byte: each command of ``output_corpus`` on
each of its graphs gives the exit code and the stdout and stderr
digests that ``tests/golden/outputs.json`` holds."""

import json

from output_corpus import GOLDEN, digests, write_graphs


def test_cli_output_matches_the_pinned_digests(tmp_path, monkeypatch):
    write_graphs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert digests() == json.loads(GOLDEN.read_text())
