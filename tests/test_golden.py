"""Pinned `dsl.run(...).to_json()` outputs.

The digests were recorded with the full-width Kronecker gate path and the
support-walking measurement, so a match shows that the local kernel and the
popcount measurement change neither any state in the trace nor how the
seeded generator is used. Each entry is (circuit, seed, first 16 hex digits
of the SHA-256 of the sorted-key JSON, measured outcomes in order).
"""

import hashlib
import json
from pathlib import Path

import pytest

from setqm.dsl import parse, run

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

# Two 8-line circuits with an evaluation gate and measures whose outcomes
# are genuinely random, so the seeded generator is consulted.
GENERATED = {
    "generated_1": """\
lines 8
init ket 00001110+11000111+11011101
measure 0
gate XH1 7
measure 4
gate XH1 3
gate CNOT 5 4
gate CNOT 2 3
gate CNOT 1 0
gate I 6
gate EF 0100110100110100
gate XH1 4
gate I 5
measure 6
gate XH0 3
gate H0 4
gate XH0 7
gate CNOT 7 6
""",
    "generated_2": """\
lines 8
init ket 00110000+01100010+10000111
gate XH1 1
measure 6
gate H0 1
gate CNOT 3 2
gate CNOT 6 7
gate XH1 1
gate X 4
gate CNOT 1 0
gate XH0 3
gate XH1 5
gate H1 3
measure 0
gate CNOT 5 6
gate XH0 6
gate EF 1100001101100000
measure 2
""",
}

GOLDEN = [
    ("deutsch_const0.qc2", 0, "18885ae5ba2f4531", "0"),
    ("deutsch_const0.qc2", 1, "18885ae5ba2f4531", "0"),
    ("deutsch_const0.qc2", 2, "18885ae5ba2f4531", "0"),
    ("deutsch_const1.qc2", 0, "86338c0873f8f0bd", "0"),
    ("deutsch_const1.qc2", 1, "86338c0873f8f0bd", "0"),
    ("deutsch_const1.qc2", 2, "86338c0873f8f0bd", "0"),
    ("deutsch_identity.qc2", 0, "65ee51ee31173fa0", "1"),
    ("deutsch_identity.qc2", 1, "65ee51ee31173fa0", "1"),
    ("deutsch_identity.qc2", 2, "65ee51ee31173fa0", "1"),
    ("deutsch_negation.qc2", 0, "a0a3dfc8494b4143", "1"),
    ("deutsch_negation.qc2", 1, "a0a3dfc8494b4143", "1"),
    ("deutsch_negation.qc2", 2, "a0a3dfc8494b4143", "1"),
    ("parity_sat2.qc2", 0, "df62bd4264a55f45", "01"),
    ("parity_sat2.qc2", 1, "df62bd4264a55f45", "01"),
    ("parity_sat2.qc2", 2, "df62bd4264a55f45", "01"),
    ("teleport.qc2", 0, "9cdd81ca4acc2cfc", "1"),
    ("teleport.qc2", 1, "3c7aff98ffe69d9d", "0"),
    ("teleport.qc2", 2, "3c7aff98ffe69d9d", "0"),
    ("generated_1", 0, "f06558d710527d72", "110"),
    ("generated_1", 1, "77369584cebb0862", "010"),
    ("generated_1", 2, "77369584cebb0862", "010"),
    ("generated_2", 0, "ea6030b1d062ed6a", "110"),
    ("generated_2", 1, "4973ac41776f9802", "111"),
    ("generated_2", 2, "7433175d162703ed", "100"),
]


def test_every_shipped_circuit_is_pinned():
    shipped = {p.name for p in CIRCUITS.glob("*.qc2")}
    assert shipped == {name for name, *_ in GOLDEN} - set(GENERATED)


@pytest.mark.parametrize("name,seed,digest,outcomes", GOLDEN)
def test_run_output_is_unchanged(name, seed, digest, outcomes):
    text = GENERATED.get(name) or (CIRCUITS / name).read_text(encoding="utf-8")
    out = run(parse(text), seed=seed).to_json()
    assert "".join(str(m["outcome"]) for m in out["measurements"]) == outcomes
    canonical = json.dumps(out, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest()[:16] == digest
