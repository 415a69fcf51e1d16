"""Pinned stdout of `setqm density`, `measure-density`, `bell`, `ket-table` and `entropy`.

The density and bell digests were recorded with the entrywise Fraction
density matrix and the frozenset product state, and the ket-table and
entropy digests with ket-table rows of label tuples and partition output
built from block kets, so a match shows that the block form, the bitset
state and the mask rows print the same bytes. GOLDEN maps each argument list, joined
by spaces, to the first 16 hex digits of the SHA-256 of stdout; every call
exits 0.
"""

import hashlib
from itertools import product

import pytest

from setqm.cli import main

PARTITIONS = {
    3: ["{a,b,c}", "{a,b}|{c}", "{a,c}|{b}", "{a}|{b,c}", "{a}|{b}|{c}", "{c}|{b,a}"],
    2: ["{a,b}", "{a}|{b}", "{b}|{a}"],
}
SUBSETS = {
    3: ["{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}", "{c,a}"],
    2: ["{a}", "{b}", "{a,b}"],
}
ATTRS = {
    3: ["a:1,b:2,c:3", "a:1,b:1,c:2", "a:0,b:1,c:0", "a:5,b:5,c:5", "a:1/2,b:-3,c:1/2"],
    2: ["a:1,b:2", "a:7,b:7"],
}
PAIRS = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def _bell_states():
    for mask in range(1, 16):
        yield "{" + ",".join(f"({x},{y})" for j, (x, y) in enumerate(PAIRS) if mask >> j & 1) + "}"
    yield "{(b,b),(a,a),(a,a)}"  # out of order and repeated


def _cases():
    for fmt, dim in product(("table", "json"), (3, 2)):
        common = ("--dim", str(dim), "--format", fmt)
        for p in PARTITIONS[dim]:
            yield ("density", "--partition", p, *common)
        for s in SUBSETS[dim]:
            yield ("density", "--state", s, *common)
        for f in ATTRS[dim]:
            yield ("measure-density", "--attr", f, *common)
            for p in PARTITIONS[dim]:
                yield ("measure-density", "--attr", f, "--partition", p, *common)
    for fmt in ("table", "json"):
        yield ("bell", "--format", fmt)
        for s in _bell_states():
            yield ("bell", "--state", s, "--format", fmt)
    for fmt, dim in product(("table", "json"), (3, 2)):
        yield ("ket-table", "--dim", str(dim), "--format", fmt)
    for dim in (3, 2):
        for p in PARTITIONS[dim]:
            yield ("entropy", "--partition", p, "--dim", str(dim), "--format", "json")


CASES = list(_cases())

GOLDEN = {
    'density --partition {a,b,c} --dim 3 --format table': "70101909cac00f9c",
    'density --partition {a,b}|{c} --dim 3 --format table': "6e02f8088aeba9c0",
    'density --partition {a,c}|{b} --dim 3 --format table': "49c56083cb5426d4",
    'density --partition {a}|{b,c} --dim 3 --format table': "0360fc70628bef0c",
    'density --partition {a}|{b}|{c} --dim 3 --format table': "eb90898dd4d8daed",
    'density --partition {c}|{b,a} --dim 3 --format table': "6e02f8088aeba9c0",
    'density --state {a} --dim 3 --format table': "c822baf57fb6450c",
    'density --state {b} --dim 3 --format table': "fe2f4373757f49b3",
    'density --state {c} --dim 3 --format table': "e215bbc6542207dd",
    'density --state {a,b} --dim 3 --format table': "a5db646910bcc96b",
    'density --state {a,c} --dim 3 --format table': "caa965d774954ef7",
    'density --state {b,c} --dim 3 --format table': "efdd0b4f68367d05",
    'density --state {a,b,c} --dim 3 --format table': "70101909cac00f9c",
    'density --state {c,a} --dim 3 --format table': "caa965d774954ef7",
    'measure-density --attr a:1,b:2,c:3 --dim 3 --format table': "8da7da7cd6cff6e7",
    'measure-density --attr a:1,b:2,c:3 --partition {a,b,c} --dim 3 --format table': "8da7da7cd6cff6e7",
    'measure-density --attr a:1,b:2,c:3 --partition {a,b}|{c} --dim 3 --format table': "b9b4cd7445d43bff",
    'measure-density --attr a:1,b:2,c:3 --partition {a,c}|{b} --dim 3 --format table': "3a107e2d4418ae28",
    'measure-density --attr a:1,b:2,c:3 --partition {a}|{b,c} --dim 3 --format table': "f402ec05b399a27f",
    'measure-density --attr a:1,b:2,c:3 --partition {a}|{b}|{c} --dim 3 --format table': "717aa51241b1fa57",
    'measure-density --attr a:1,b:2,c:3 --partition {c}|{b,a} --dim 3 --format table': "b9b4cd7445d43bff",
    'measure-density --attr a:1,b:1,c:2 --dim 3 --format table': "a392ac76ef8c63d1",
    'measure-density --attr a:1,b:1,c:2 --partition {a,b,c} --dim 3 --format table': "a392ac76ef8c63d1",
    'measure-density --attr a:1,b:1,c:2 --partition {a,b}|{c} --dim 3 --format table': "b7c9613f8425314f",
    'measure-density --attr a:1,b:1,c:2 --partition {a,c}|{b} --dim 3 --format table': "3a107e2d4418ae28",
    'measure-density --attr a:1,b:1,c:2 --partition {a}|{b,c} --dim 3 --format table': "f402ec05b399a27f",
    'measure-density --attr a:1,b:1,c:2 --partition {a}|{b}|{c} --dim 3 --format table': "717aa51241b1fa57",
    'measure-density --attr a:1,b:1,c:2 --partition {c}|{b,a} --dim 3 --format table': "b7c9613f8425314f",
    'measure-density --attr a:0,b:1,c:0 --dim 3 --format table': "3cd15f137eecc188",
    'measure-density --attr a:0,b:1,c:0 --partition {a,b,c} --dim 3 --format table': "3cd15f137eecc188",
    'measure-density --attr a:0,b:1,c:0 --partition {a,b}|{c} --dim 3 --format table': "b9b4cd7445d43bff",
    'measure-density --attr a:0,b:1,c:0 --partition {a,c}|{b} --dim 3 --format table': "cf3105113ea29e73",
    'measure-density --attr a:0,b:1,c:0 --partition {a}|{b,c} --dim 3 --format table': "f402ec05b399a27f",
    'measure-density --attr a:0,b:1,c:0 --partition {a}|{b}|{c} --dim 3 --format table': "717aa51241b1fa57",
    'measure-density --attr a:0,b:1,c:0 --partition {c}|{b,a} --dim 3 --format table': "b9b4cd7445d43bff",
    'measure-density --attr a:5,b:5,c:5 --dim 3 --format table': "868c87a601521e9b",
    'measure-density --attr a:5,b:5,c:5 --partition {a,b,c} --dim 3 --format table': "868c87a601521e9b",
    'measure-density --attr a:5,b:5,c:5 --partition {a,b}|{c} --dim 3 --format table': "b7c9613f8425314f",
    'measure-density --attr a:5,b:5,c:5 --partition {a,c}|{b} --dim 3 --format table': "cf3105113ea29e73",
    'measure-density --attr a:5,b:5,c:5 --partition {a}|{b,c} --dim 3 --format table': "777b2d3a9f8391ce",
    'measure-density --attr a:5,b:5,c:5 --partition {a}|{b}|{c} --dim 3 --format table': "717aa51241b1fa57",
    'measure-density --attr a:5,b:5,c:5 --partition {c}|{b,a} --dim 3 --format table': "b7c9613f8425314f",
    'measure-density --attr a:1/2,b:-3,c:1/2 --dim 3 --format table': "3cd15f137eecc188",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,b,c} --dim 3 --format table': "3cd15f137eecc188",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,b}|{c} --dim 3 --format table': "b9b4cd7445d43bff",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,c}|{b} --dim 3 --format table': "cf3105113ea29e73",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a}|{b,c} --dim 3 --format table': "f402ec05b399a27f",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a}|{b}|{c} --dim 3 --format table': "717aa51241b1fa57",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {c}|{b,a} --dim 3 --format table': "b9b4cd7445d43bff",
    'density --partition {a,b} --dim 2 --format table': "214678636ddf19f3",
    'density --partition {a}|{b} --dim 2 --format table': "c3995c6a99391d99",
    'density --partition {b}|{a} --dim 2 --format table': "c3995c6a99391d99",
    'density --state {a} --dim 2 --format table': "36c5852140afc895",
    'density --state {b} --dim 2 --format table': "223deb87069a50e1",
    'density --state {a,b} --dim 2 --format table': "214678636ddf19f3",
    'measure-density --attr a:1,b:2 --dim 2 --format table': "85cac514c02c5e55",
    'measure-density --attr a:1,b:2 --partition {a,b} --dim 2 --format table': "85cac514c02c5e55",
    'measure-density --attr a:1,b:2 --partition {a}|{b} --dim 2 --format table': "4c07ce50f8627c83",
    'measure-density --attr a:1,b:2 --partition {b}|{a} --dim 2 --format table': "4c07ce50f8627c83",
    'measure-density --attr a:7,b:7 --dim 2 --format table': "5e5ddea02c48229b",
    'measure-density --attr a:7,b:7 --partition {a,b} --dim 2 --format table': "5e5ddea02c48229b",
    'measure-density --attr a:7,b:7 --partition {a}|{b} --dim 2 --format table': "4c07ce50f8627c83",
    'measure-density --attr a:7,b:7 --partition {b}|{a} --dim 2 --format table': "4c07ce50f8627c83",
    'density --partition {a,b,c} --dim 3 --format json': "54380beffc928481",
    'density --partition {a,b}|{c} --dim 3 --format json': "eb5e4b0a0ef6810e",
    'density --partition {a,c}|{b} --dim 3 --format json': "d4973a8193bc493c",
    'density --partition {a}|{b,c} --dim 3 --format json': "c077c003ec0eba17",
    'density --partition {a}|{b}|{c} --dim 3 --format json': "864338cd6e3c7fc4",
    'density --partition {c}|{b,a} --dim 3 --format json': "eb5e4b0a0ef6810e",
    'density --state {a} --dim 3 --format json': "7b8cebaef2e92ba8",
    'density --state {b} --dim 3 --format json': "61310c8ca739b00b",
    'density --state {c} --dim 3 --format json': "866a0e39e189258f",
    'density --state {a,b} --dim 3 --format json': "e8b88b0fd208f2a5",
    'density --state {a,c} --dim 3 --format json': "ef844c4d3d409bf2",
    'density --state {b,c} --dim 3 --format json': "b5e0ecb55cc8fd67",
    'density --state {a,b,c} --dim 3 --format json': "54380beffc928481",
    'density --state {c,a} --dim 3 --format json': "ef844c4d3d409bf2",
    'measure-density --attr a:1,b:2,c:3 --dim 3 --format json': "3c2784e7ab43d8ab",
    'measure-density --attr a:1,b:2,c:3 --partition {a,b,c} --dim 3 --format json': "3c2784e7ab43d8ab",
    'measure-density --attr a:1,b:2,c:3 --partition {a,b}|{c} --dim 3 --format json': "2d7b7116077ac25d",
    'measure-density --attr a:1,b:2,c:3 --partition {a,c}|{b} --dim 3 --format json': "e4a1fc067363e58c",
    'measure-density --attr a:1,b:2,c:3 --partition {a}|{b,c} --dim 3 --format json': "cfd03db3bcf1fd8b",
    'measure-density --attr a:1,b:2,c:3 --partition {a}|{b}|{c} --dim 3 --format json': "2cabea56327dd9b2",
    'measure-density --attr a:1,b:2,c:3 --partition {c}|{b,a} --dim 3 --format json': "2d7b7116077ac25d",
    'measure-density --attr a:1,b:1,c:2 --dim 3 --format json': "c4ba51fc05cbc795",
    'measure-density --attr a:1,b:1,c:2 --partition {a,b,c} --dim 3 --format json': "c4ba51fc05cbc795",
    'measure-density --attr a:1,b:1,c:2 --partition {a,b}|{c} --dim 3 --format json': "5164d640e2f568fb",
    'measure-density --attr a:1,b:1,c:2 --partition {a,c}|{b} --dim 3 --format json': "e4a1fc067363e58c",
    'measure-density --attr a:1,b:1,c:2 --partition {a}|{b,c} --dim 3 --format json': "cfd03db3bcf1fd8b",
    'measure-density --attr a:1,b:1,c:2 --partition {a}|{b}|{c} --dim 3 --format json': "2cabea56327dd9b2",
    'measure-density --attr a:1,b:1,c:2 --partition {c}|{b,a} --dim 3 --format json': "5164d640e2f568fb",
    'measure-density --attr a:0,b:1,c:0 --dim 3 --format json': "eb2ac3262f44ed29",
    'measure-density --attr a:0,b:1,c:0 --partition {a,b,c} --dim 3 --format json': "eb2ac3262f44ed29",
    'measure-density --attr a:0,b:1,c:0 --partition {a,b}|{c} --dim 3 --format json': "2d7b7116077ac25d",
    'measure-density --attr a:0,b:1,c:0 --partition {a,c}|{b} --dim 3 --format json': "1d1e5806b1a48953",
    'measure-density --attr a:0,b:1,c:0 --partition {a}|{b,c} --dim 3 --format json': "cfd03db3bcf1fd8b",
    'measure-density --attr a:0,b:1,c:0 --partition {a}|{b}|{c} --dim 3 --format json': "2cabea56327dd9b2",
    'measure-density --attr a:0,b:1,c:0 --partition {c}|{b,a} --dim 3 --format json': "2d7b7116077ac25d",
    'measure-density --attr a:5,b:5,c:5 --dim 3 --format json': "a4721ff61a427eaa",
    'measure-density --attr a:5,b:5,c:5 --partition {a,b,c} --dim 3 --format json': "a4721ff61a427eaa",
    'measure-density --attr a:5,b:5,c:5 --partition {a,b}|{c} --dim 3 --format json': "5164d640e2f568fb",
    'measure-density --attr a:5,b:5,c:5 --partition {a,c}|{b} --dim 3 --format json': "1d1e5806b1a48953",
    'measure-density --attr a:5,b:5,c:5 --partition {a}|{b,c} --dim 3 --format json': "c7aa2f21c5aee1f0",
    'measure-density --attr a:5,b:5,c:5 --partition {a}|{b}|{c} --dim 3 --format json': "2cabea56327dd9b2",
    'measure-density --attr a:5,b:5,c:5 --partition {c}|{b,a} --dim 3 --format json': "5164d640e2f568fb",
    'measure-density --attr a:1/2,b:-3,c:1/2 --dim 3 --format json': "eb2ac3262f44ed29",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,b,c} --dim 3 --format json': "eb2ac3262f44ed29",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,b}|{c} --dim 3 --format json': "2d7b7116077ac25d",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a,c}|{b} --dim 3 --format json': "1d1e5806b1a48953",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a}|{b,c} --dim 3 --format json': "cfd03db3bcf1fd8b",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {a}|{b}|{c} --dim 3 --format json': "2cabea56327dd9b2",
    'measure-density --attr a:1/2,b:-3,c:1/2 --partition {c}|{b,a} --dim 3 --format json': "2d7b7116077ac25d",
    'density --partition {a,b} --dim 2 --format json': "1c620631866bebd5",
    'density --partition {a}|{b} --dim 2 --format json': "f7463c5f33a4bac6",
    'density --partition {b}|{a} --dim 2 --format json': "f7463c5f33a4bac6",
    'density --state {a} --dim 2 --format json': "b74d305e75b0692b",
    'density --state {b} --dim 2 --format json': "37b05f35b83879d7",
    'density --state {a,b} --dim 2 --format json': "1c620631866bebd5",
    'measure-density --attr a:1,b:2 --dim 2 --format json': "66ddd69e6e4a12aa",
    'measure-density --attr a:1,b:2 --partition {a,b} --dim 2 --format json': "66ddd69e6e4a12aa",
    'measure-density --attr a:1,b:2 --partition {a}|{b} --dim 2 --format json': "87dfd7be6482e79a",
    'measure-density --attr a:1,b:2 --partition {b}|{a} --dim 2 --format json': "87dfd7be6482e79a",
    'measure-density --attr a:7,b:7 --dim 2 --format json': "20953be99019a2f5",
    'measure-density --attr a:7,b:7 --partition {a,b} --dim 2 --format json': "20953be99019a2f5",
    'measure-density --attr a:7,b:7 --partition {a}|{b} --dim 2 --format json': "87dfd7be6482e79a",
    'measure-density --attr a:7,b:7 --partition {b}|{a} --dim 2 --format json': "87dfd7be6482e79a",
    'bell --format table': "c1392b864fd9b82b",
    'bell --state {(a,a)} --format table': "d209e3bffade6a06",
    'bell --state {(a,b)} --format table': "d9adbcf3745a51e0",
    'bell --state {(a,a),(a,b)} --format table': "05548f959ab16c18",
    'bell --state {(b,a)} --format table': "6d02732020ea1f0a",
    'bell --state {(a,a),(b,a)} --format table': "8c664303a17e5fe6",
    'bell --state {(a,b),(b,a)} --format table': "533f779743075455",
    'bell --state {(a,a),(a,b),(b,a)} --format table': "c685d39a46453ec7",
    'bell --state {(b,b)} --format table': "be9851bb4b902f5b",
    'bell --state {(a,a),(b,b)} --format table': "c1392b864fd9b82b",
    'bell --state {(a,b),(b,b)} --format table': "ac859c5466337c2f",
    'bell --state {(a,a),(a,b),(b,b)} --format table': "bb3c15482304b2ba",
    'bell --state {(b,a),(b,b)} --format table': "4d3172b741c42dce",
    'bell --state {(a,a),(b,a),(b,b)} --format table': "aaab9f542e56f675",
    'bell --state {(a,b),(b,a),(b,b)} --format table': "087fcfb62e317d91",
    'bell --state {(a,a),(a,b),(b,a),(b,b)} --format table': "b1e63b09c2d0e2ed",
    'bell --state {(b,b),(a,a),(a,a)} --format table': "c1392b864fd9b82b",
    'bell --format json': "cb64cb3bd73b2795",
    'bell --state {(a,a)} --format json': "6bcd7f55750cbfc1",
    'bell --state {(a,b)} --format json': "fa1840fdf58c9bad",
    'bell --state {(a,a),(a,b)} --format json': "c9286fe5be4482ea",
    'bell --state {(b,a)} --format json': "a4a53d60e054d790",
    'bell --state {(a,a),(b,a)} --format json': "20bf1b305bc9b61a",
    'bell --state {(a,b),(b,a)} --format json': "cdd1672fbbc61778",
    'bell --state {(a,a),(a,b),(b,a)} --format json': "5ab87466299ca812",
    'bell --state {(b,b)} --format json': "a98dbb3cdffa665d",
    'bell --state {(a,a),(b,b)} --format json': "cb64cb3bd73b2795",
    'bell --state {(a,b),(b,b)} --format json': "305a72d57d8f5dc9",
    'bell --state {(a,a),(a,b),(b,b)} --format json': "0d9ebb2062a0bb8d",
    'bell --state {(b,a),(b,b)} --format json': "daf16258c314243c",
    'bell --state {(a,a),(b,a),(b,b)} --format json': "f870a43ca0c1c7fa",
    'bell --state {(a,b),(b,a),(b,b)} --format json': "e9bca1f4171416e5",
    'bell --state {(a,a),(a,b),(b,a),(b,b)} --format json': "96dd4a6a5e25896b",
    'bell --state {(b,b),(a,a),(a,a)} --format json': "cb64cb3bd73b2795",
    'ket-table --dim 3 --format table': "12a6134cd11407fa",
    'ket-table --dim 2 --format table': "00782c331a7afc06",
    'ket-table --dim 3 --format json': "9bd29bb9845fbb18",
    'ket-table --dim 2 --format json': "203dcbc238e13773",
    'entropy --partition {a,b,c} --dim 3 --format json': "d5278c5e71fa4b5d",
    'entropy --partition {a,b}|{c} --dim 3 --format json': "29bf10127bee5d85",
    'entropy --partition {a,c}|{b} --dim 3 --format json': "5cf11fcb935473a2",
    'entropy --partition {a}|{b,c} --dim 3 --format json': "1b6092add09af113",
    'entropy --partition {a}|{b}|{c} --dim 3 --format json': "da729acc6cc9d64f",
    'entropy --partition {c}|{b,a} --dim 3 --format json': "29bf10127bee5d85",
    'entropy --partition {a,b} --dim 2 --format json': "37ed5648e61ff79b",
    'entropy --partition {a}|{b} --dim 2 --format json': "b8668c6966b6c017",
    'entropy --partition {b}|{a} --dim 2 --format json': "b8668c6966b6c017",
}


def _digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


def test_every_case_is_pinned():
    assert set(GOLDEN) == {" ".join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_unchanged(capsys, argv):
    assert _digest(capsys, argv) == GOLDEN[" ".join(argv)]
