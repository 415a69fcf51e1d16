"""Tests of the benchmark itself: references, generator, tracing, metric names.

Run from the repository root: python3 -m pytest -q perfbench/selftest.py
(the file name keeps it out of the package's own test collection).
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import Mismatch  # noqa: E402
from setqm import gf2, qc  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run_case(case):
    """Run a case's ops in order, checking each; returns [(op, ctx, result)]."""
    ctx, out = {}, []
    for op in case:
        result = op.call(ctx)
        op.check(ctx, result)
        out.append((op, dict(ctx), result))
        if op.keep:
            ctx[op.keep] = result
    return out


def cases_for(workload, seed, workdir, sizes=None):
    cases = workloads.build(workload, seed, ROOT, workdir)
    return [c for c in cases if sizes is None or c[0].size in sizes]


# ---------------------------------------------------------------- corrupted results

def flip_register_bit(result):
    ast, res = result
    last = res.trace[-1].register
    bits = last.state.bits
    reg = qc.Register(last.lines, gf2.BitVec(last.state.length, bits ^ 1 if bits != 1 else bits ^ 2))
    trace = res.trace[:-1] + (dataclasses.replace(res.trace[-1], register=reg),)
    return ast, dataclasses.replace(res, trace=trace)


def perturb_entries(result):
    rows = [list(row) for row in result.entries]
    rows[-1][0] += Fraction(1, 997)
    return SimpleNamespace(entries=tuple(tuple(r) for r in rows), dim=result.dim)


def flip_ket(result):
    return SimpleNamespace(bits=SimpleNamespace(bits=result.bits.bits ^ 1))


def perturb_dict(result):
    key = next(iter(result))
    return {**result, key: result[key] + Fraction(1, 997)}


CORRUPT = {
    "dsl.run": flip_register_bit,
    "qc.parity_sat": lambda r: dataclasses.replace(r, parity=1 - r.parity),
    "density.rho_of_partition": perturb_entries,
    "density.rho_of_subset": perturb_entries,
    "density.measure_density": perturb_entries,
    "density.purity": lambda r: r + Fraction(1, 997),
    "density.logical_entropy_rho": lambda r: r + Fraction(1, 997),
    "density.entropy_increase": lambda r: r + Fraction(1, 997),
    "density.expectation": lambda r: r + Fraction(1, 997),
    "partitions.logical_entropy": lambda r: r + Fraction(1, 997),
    "partitions.dit_set": lambda r: type(r)(frozenset(list(r.pairs)[1:])),
    "space.to_basis": flip_ket,
    "space.from_basis": flip_ket,
    "dynamics.evolve": flip_ket,
    "space.born": perturb_dict,
    "attributes.measure_probs": perturb_dict,
    "dynamics.interference_coefficients": lambda r: {**r, next(iter(r)): 1 - next(iter(r.values()))},
}


@pytest.mark.parametrize("workload,sizes", [
    ("circuits", ("w6", "w8", "a2", "a3")),
    ("mixed_states", ("u32",)),
    ("frames", ("u64", "k4")),
])
def test_each_check_rejects_a_corrupted_result(workload, sizes, workdir):
    seen = set()
    for case in cases_for(workload, 3, workdir, sizes):
        for op, ctx, result in run_case(case):
            if op.name in CORRUPT:
                with pytest.raises(Mismatch):
                    op.check(ctx, CORRUPT[op.name](result))
                seen.add(op.name)
    assert seen  # every workload exercised some corruption
    if workload == "mixed_states":
        assert {"density.rho_of_partition", "density.purity", "partitions.dit_set",
                "density.measure_density", "density.entropy_increase"} <= seen


# where each subcommand's JSON holds a value its check reads
JSON_PATH = {
    "ket-table": (0, "U"), "bracket": ("bracket",), "born": ("probabilities",),
    "measure": ("probabilities",), "entropy": ("logical",), "density": ("matrix", 0),
    "measure-density": ("after", 0), "double-slit": ("distribution",), "bell": ("terms",),
    "teleport": ("bob",), "parity-sat": ("parity",), "run": ("trace", -1, "state"),
}


def _perturb(o):
    """One changed rational, count, bit or label list."""
    if isinstance(o, bool):
        return not o
    if isinstance(o, int):
        return o + 1
    if isinstance(o, str):
        if o and set(o) <= {"0", "1"}:
            return o[:-1] + ("1" if o[-1] == "0" else "0")
        return str(Fraction(o) + Fraction(1, 997))
    if isinstance(o, dict):
        key = next(iter(o))
        return {**o, key: _perturb(o[key])}
    if o and all(isinstance(x, str) for x in o) and not set(o[0]) <= {"0", "1"}:
        return o[:-1]  # a label list loses its last label
    return [_perturb(o[0])] + o[1:]


def _replace(o, path):
    if not path:
        return _perturb(o)
    head, rest = path[0], path[1:]
    if isinstance(o, dict):
        return {**o, head: _replace(o[head], rest)}
    o = list(o)
    o[head] = _replace(o[head], rest)
    return o


def test_cli_checks_reject_a_perturbed_json_value(workdir):
    json_ops = [c[0] for c in cases_for("cli", 3, workdir)
                if c[0].size != "malformed" and "json" in c[0].call.__defaults__[0]]
    assert {op.size for op in json_ops} == set(JSON_PATH)
    for op in json_ops:
        code, out, err = op.call({})
        op.check({}, (code, out, err))
        bad = _replace(json.loads(out), JSON_PATH[op.size])
        with pytest.raises(Mismatch):
            op.check({}, (code, json.dumps(bad), err))


def test_cli_contract_checks_flag_broken_exits(workdir):
    malformed = [c[0] for c in cases_for("cli", 3, workdir) if c[0].size == "malformed"]
    assert len(malformed) == 11
    for op in malformed:
        with pytest.raises(workloads.ContractBreak):
            op.check({}, (0, "", ""))
        with pytest.raises(workloads.ContractBreak):
            op.check({}, (1, "", "Traceback (most recent call last):\n"))


# ---------------------------------------------------------------- generator

def fingerprint(workload, seed, workdir):
    out = []
    for case in cases_for(workload, seed, workdir):
        ctx = {}
        for op in case:
            try:
                result = op.call(ctx)
            except Exception as exc:  # the known CLI defects escape; their repr is data too
                result = exc
            if op.keep:
                ctx[op.keep] = result
            out.append((op.name, op.size, repr(result)))
    return out


@pytest.mark.parametrize("workload", ["circuits", "cli"])
def test_generator_is_deterministic_per_seed(workload, workdir):
    a = fingerprint(workload, 5, workdir)
    assert a == fingerprint(workload, 5, workdir)
    b = fingerprint(workload, 6, workdir)
    assert a != b
    assert sorted((n, s) for n, s, _ in a) == sorted((n, s) for n, s, _ in b)


def test_mixed_and_frame_inputs_are_deterministic_per_seed():
    for n in (32, 64):
        a = workloads.mixed_case(random.Random(9), n, 4, True)
        b = workloads.mixed_case(random.Random(9), n, 4, True)
        assert [repr(op.call({})) for op in a[3:7]] == [repr(op.call({})) for op in b[3:7]]
    assert ref.random_nonsingular(64, random.Random(2)) == ref.random_nonsingular(64, random.Random(2))


def test_random_nonsingular_inverse_is_exact():
    rng = random.Random(4)
    for n in (2, 5, 64):
        a, inv = ref.random_nonsingular(n, rng)
        ident = tuple(1 << i for i in range(n))
        assert ref.matmul(a, inv) == ident and ref.matmul(inv, a) == ident


def test_reference_gates_agree_with_known_states():
    # teleport: |00>+|10>, H0 on line 1, then CNOT with control 1 and target 0
    phi1 = ref.local_gate(0b0101, 2, 1, ref.ONE_LINE["H0"])
    assert phi1 == 0b1111
    assert ref.cnot(0b0110, 2, 1, 0) == 0b1100  # |01> -> |11>, |10> stays
    # EF for the identity function is X.H0: |0> -> |0>+|1> -> |1>+|0>, and |1> -> |1> -> |0>
    assert ref.ef_apply(0b01, 1, "01") == 0b11 and ref.ef_apply(0b10, 1, "01") == 0b01


# ---------------------------------------------------------------- tracing

def traced_pass(workload, seed, workdir, sizes):
    cases = cases_for(workload, seed, workdir, sizes)
    tracer = spans.Tracer(layers.HOOKS)
    try:
        tracer.install()
        assert spans.installed_wrappers()
        run.run_pass(cases, workloads, tracer, seed, workload in run.MAY_FAIL)
    finally:
        tracer.remove()
    return tracer


@pytest.mark.parametrize("workload,sizes", [("circuits", ("w6", "a3")), ("cli", None),
                                            ("mixed_states", ("u32",))])
def test_self_times_sum_to_op_wall_time(workload, sizes, workdir):
    tracer = traced_pass(workload, 2, workdir, sizes)
    selfs = spans.self_times(tracer.spans)
    per_op, roots = {}, {}
    for (name, start, end, parent, op, _), s in zip(tracer.spans, selfs):
        per_op[op] = per_op.get(op, 0.0) + s
        if parent == -1:
            roots[op] = end - start
    assert roots and set(per_op) == set(roots)
    for op, wall in roots.items():
        assert abs(per_op[op] - wall) <= 1e-9 + 1e-9 * wall
    assert all(s >= -1e-9 for s in selfs)


def test_wrappers_cover_every_binding_and_are_removed(workdir):
    import setqm
    original = (setqm.gf2.kron, setqm.qc.kron, setqm.density.purity, setqm.cli.purity)
    tracer = spans.Tracer(layers.HOOKS)
    try:
        tracer.install()
        assert setqm.qc.kron is not original[1] and setqm.cli.purity is not original[3]
        assert setqm.qc.kron is setqm.gf2.kron
        assert setqm.cli.purity is setqm.density.purity
    finally:
        tracer.remove()
    assert spans.installed_wrappers() == []
    assert (setqm.gf2.kron, setqm.qc.kron, setqm.density.purity, setqm.cli.purity) == original
    tracer = traced_pass("circuits", 1, workdir, ("a2",))
    assert spans.installed_wrappers() == []
    spans.assert_untraced()


def test_traced_run_reports_every_per_layer_metric(workdir):
    tracer = traced_pass("circuits", 1, workdir, ("w6", "w8"))
    metrics = layers.compute(tracer.spans, tracer.counters, 0.0)
    assert list(metrics) == [m["name"] for m in layers.spec()]
    assert metrics["qc.apply.us_per_call.w6"] > 0 and metrics["gf2.kron.bits_per_op"] > 0
    assert metrics["qc.apply.matrix_bits_per_state_bit"] > 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_samples():
    assert run.tail_percentile(100) == 90.0 and run.tail_percentile(99) == 75.0
    assert run.tail_percentile(1000) == 99.0 and run.tail_percentile(199) == 90.0
    for n in (20, 64, 100, 120, 10000):
        beyond = [run.quantile(range(n), run.tail_percentile(n)) < i for i in range(n)]
        assert sum(beyond) >= 10


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_has_a_p90_tail(workload, workdir):
    cases = workloads.build(workload, 1, ROOT, workdir)
    latencies, _ = run.run_pass(cases, workloads, None, 1, workload in run.MAY_FAIL)
    completed = len(latencies) - latencies.count(None)
    assert run.tail_percentile(completed) == 90.0


def test_an_op_that_raises_is_not_timed():
    def boom(ctx):
        raise KeyError("z")
    ok = workloads.Op("t.ok", "s", lambda ctx: 1, lambda ctx, result: None)
    bad = workloads.Op("t.bad", "s", boom, lambda ctx, result: None)
    latencies, notes = run.run_pass([[ok, bad, ok]], workloads, None, 1, True)
    assert latencies[1] is None and None not in (latencies[0], latencies[2])
    assert len(notes) == 1 and "t.bad" in notes[0] and "KeyError" in notes[0]
    with pytest.raises(run.Abort, match=r"t\.bad.*seed 1"):
        run.run_pass([[ok, bad, ok]], workloads, None, 1, False)


def test_predictions_cover_every_per_layer_metric():
    import fnmatch
    rules = json.loads((HERE / "predictions.json").read_text())["rules"]
    e2e = {name for name, _ in run.END_TO_END}
    for rule in rules:
        for part in ("moves", "barely"):
            for workload, metrics in rule.get(part, {}).items():
                assert workload in workloads.WORKLOADS and set(metrics) <= e2e
        assert set(rule["unchanged"]) <= set(workloads.WORKLOADS)
    for metric in layers.spec():
        assert any(fnmatch.fnmatchcase(metric["name"], pattern)
                   for rule in rules for pattern in rule["per_layer"]), metric["name"]
