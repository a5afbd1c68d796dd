"""`wall`, `reduce` and `replay` print exactly what the fixture pins.

tests/fixtures/certify_golden.json holds the exit code and stdout of each
run (see tests/fixtures/make_certify_golden.py); a faster `mu` or matrix
product must not change one byte of them.
"""

import json

import pytest

from fixtures.make_certify_golden import GOLDEN, build


@pytest.fixture(scope="module")
def runs():
    return json.loads(GOLDEN.read_text(encoding="utf-8")), build()


@pytest.mark.parametrize("group", ["wall", "reduce", "replay"])
def test_cli_output_matches_the_certify_golden(runs, group):
    pinned, fresh = runs
    assert [e["label"] for e in fresh[group]] == [e["label"] for e in pinned[group]]
    for got, want in zip(fresh[group], pinned[group]):
        assert got["input_sha256"] == want["input_sha256"], f"{got['label']}: input changed"
        assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"]), got["label"]
