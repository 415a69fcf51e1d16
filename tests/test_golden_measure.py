"""Pinned stdout of `setqm measure` over seeds 0-19.

The digests were recorded when measure walked the state's label tuple and
looked each drawn label up in the universe, so a match shows that drawing
a bit position and reading its eigenvalue prints the same bytes. GOLDEN
maps (dim, attribute, state, format) to the first 16 hex digits of the
SHA-256 of the twenty stdouts for seeds 0-19, concatenated in seed order;
every call exits 0.
"""

import hashlib

import pytest

from setqm.cli import main

GOLDEN = {
    ("3", "a:1,b:2,c:3", "{a,b,c}", "table"): "6512b37da23909d3",
    ("3", "a:1,b:2,c:3", "{c,a}", "table"): "8e9e374aa753f0f5",
    ("3", "a:1,b:1,c:2", "{a,b,c}", "table"): "8a61ec20772253aa",
    ("3", "a:1,b:1,c:2", "{b,c}", "table"): "c21ae52e109d84a4",
    ("3", "a:1/2,b:-3,c:1/2", "{a,b,c}", "table"): "da3517f58709adb8",
    ("3", "a:5,b:5,c:5", "{a,b}", "table"): "262358b5bfaaa9c7",
    ("2", "a:1,b:2", "{a,b}", "table"): "358058e6f85b66cd",
    ("2", "a:7,b:-7", "{b}", "table"): "44d29bc80e0d770d",
    ("3", "a:1,b:2,c:3", "{a,b,c}", "json"): "faacbb5a640b9190",
    ("3", "a:1,b:2,c:3", "{c,a}", "json"): "285c06b6929fcd21",
    ("3", "a:1,b:1,c:2", "{a,b,c}", "json"): "e30aa0f94317a141",
    ("3", "a:1,b:1,c:2", "{b,c}", "json"): "616d906c9f6cacb4",
    ("3", "a:1/2,b:-3,c:1/2", "{a,b,c}", "json"): "791c713a35192f78",
    ("3", "a:5,b:5,c:5", "{a,b}", "json"): "bc1eaa3448a17af9",
    ("2", "a:1,b:2", "{a,b}", "json"): "6721e11616f7f487",
    ("2", "a:7,b:-7", "{b}", "json"): "d154cd3dc3112976",
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=" ".join)
def test_measure_stdout_matches_golden(case, capsys):
    dim, attr, state, fmt = case
    digest = hashlib.sha256()
    for seed in range(20):
        args = ["measure", "--attr", attr, "--state", state, "--dim", dim, "--format", fmt,
                "--seed", str(seed)]
        assert main(args) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest()[:16] == GOLDEN[case]
