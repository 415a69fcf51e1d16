"""Seeded workloads over setqm's public entry points, each op checked exactly.

A workload is a list of cases; a case is a list of ops that share a
context dict, so a later op can take an earlier op's result (purity takes
the matrix rho_of_partition built). One op is one call into setqm. The
seed changes what the inputs contain, never how many there are of each
size, so every seed does the same amount of work per size class.

Checks compare each result with `reference`, which shares no code with
setqm. A wrong value raises `Mismatch` and ends the run. A CLI call that
breaks the README exit contract raises `ContractBreak`; it and an op
that raises count as failed in `cli` and end the run anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from setqm import attributes, cli, density, dsl, dynamics, entangle, gf2, partitions, presets, qc, space

import reference as ref
from reference import Mismatch, bits_of, expect


class ContractBreak(Exception):
    """A CLI call whose exit code or stderr breaks the README contract."""


@dataclass(frozen=True)
class Op:
    name: str  # the setqm callable, e.g. "density.purity"
    size: str  # size class, e.g. "u256", "w12", "a4"
    call: Callable[[dict], object]
    check: Callable[[dict, object], None]
    keep: str | None = None  # store the result in the case context under this key


def _pop(x: int) -> int:
    return bin(x).count("1")


# ---------------------------------------------------------------- circuits

# (register lines, circuits per pass). Twenty steps at 14 lines cost about
# 0.7 s with the full-width Kronecker path, so the sweep stops at 12.
# Counts per pass are set so that the median op falls inside the 8- and
# 10-line classes (~17 ms each) and the tail percentile (p90 of 100 slots)
# inside the 12-line one (~75 ms), not on the edge between two classes.
CIRCUIT_MIX = ((6, 20), (8, 40), (10, 12), (12, 16))
PARITY_MIX = ((2, 4), (3, 4), (4, 4))  # (arity, parity_sat calls per pass)
STEPS, MEASURES, CNOTS = 20, 2, 5
GATE_NAMES = tuple(ref.ONE_LINE)


def gen_circuit(rng: random.Random, lines: int):
    """A .qc2 text of STEPS steps plus the generator's own (init, steps) description."""
    kinds = ["measure"] * MEASURES + ["cnot"] * CNOTS + (["ef"] if lines == 8 else [])
    kinds += ["gate"] * (STEPS - len(kinds))
    rng.shuffle(kinds)
    steps = []
    for kind in kinds:
        if kind == "gate":
            steps.append(("gate", rng.choice(GATE_NAMES), rng.randrange(lines)))
        elif kind == "cnot":
            c = rng.randrange(lines - 1)
            steps.append(("cnot", c, c + 1) if rng.random() < 0.5 else ("cnot", c + 1, c))
        elif kind == "ef":
            steps.append(("ef", "".join(rng.choice("01") for _ in range(2 * lines))))
        else:
            steps.append(("measure", rng.randrange(lines)))
    init = tuple(format(k, f"0{lines}b") for k in rng.sample(range(1 << lines), rng.randint(1, 3)))
    return render_circuit(lines, init, steps), lines, init, steps


def render_circuit(lines, init, steps) -> str:
    out = ["# generated circuit", f"lines {lines}",
           f"init {init[0]}" if len(init) == 1 else "init ket " + "+".join(init)]
    for step in steps:
        if step[0] == "gate":
            out.append(f"gate {step[1]} {step[2]}")
        elif step[0] == "cnot":
            out.append(f"gate CNOT {step[1]} {step[2]}")
        elif step[0] == "ef":
            out.append(f"gate EF {step[1]}")
        else:
            out.append(f"measure {'all' if step[1] is None else step[1]}")
    return "\n".join(out) + "\n"


def read_circuit(text: str):
    """The benchmark's own reader for .qc2 files it did not generate."""
    lines, init, steps = 0, None, []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "lines":
            lines = int(words[1])
        elif words[0] == "init":
            init = tuple(words[2].split("+")) if words[1] == "ket" else (words[1],)
        elif words[0] == "measure":
            steps.append(("measure", None if words[1] == "all" else int(words[1])))
        elif words[1] == "CNOT":
            steps.append(("cnot", int(words[2]), int(words[3])))
        elif words[1] == "EF":
            steps.append(("ef", words[2]))
        else:
            steps.append(("gate", words[1], int(words[2])))
    return lines, init or ("0" * lines,), steps


def check_trace(lines, init, steps, states, measurements, what) -> None:
    """Each gate step applied to the previous trace state; each measure keeps the matching half.

    `states` are the trace's register bitsets, `measurements` its
    (line, outcome, probability) records.
    """
    start = 0
    for bs in init:
        start ^= 1 << int(bs, 2)
    expect(states[0] == start, f"{what}: initial state")
    i, m = 1, 0
    for step in steps:
        measured = (range(lines) if step[1] is None else (step[1],)) if step[0] == "measure" else ()
        for line in measured:
            expect(m < len(measurements), f"{what}: missing measurement record")
            rec_line, outcome, prob = measurements[m]
            prev = states[i - 1]
            kept = ref.measure_keep(prev, lines, line, outcome)
            expect(rec_line == line and kept != 0, f"{what}: measure {line} outcome {outcome}")
            expect(states[i] == kept, f"{what}: measure {line} kept the wrong half")
            expect(prob == Fraction(_pop(kept), _pop(prev)), f"{what}: measure {line} probability")
            i, m = i + 1, m + 1
        if step[0] == "measure":
            continue
        prev = states[i - 1]
        if step[0] == "gate":
            want = ref.local_gate(prev, lines, step[2], ref.ONE_LINE[step[1]])
        elif step[0] == "cnot":
            want = ref.cnot(prev, lines, step[1], step[2])
        else:
            want = ref.ef_apply(prev, lines, step[1])
        expect(states[i] == want, f"{what}: step {i} {step}")
        i += 1
    expect(i == len(states) and m == len(measurements), f"{what}: trace length")


def _run_circuit(text: str, run_seed: int):
    ast = dsl.parse(text)
    return ast, dsl.run(ast, seed=run_seed)


def _check_circuit(lines, init, steps, result) -> None:
    ast, run = result
    expect(ast.lines == lines and len(ast.steps) == len(steps), "dsl.parse: shape of the AST")
    regs = [t.register for t in run.trace]
    expect(all(r.lines == lines for r in regs), "dsl.run: register width")
    check_trace(lines, init, steps, [r.state.bits for r in regs],
                [(m.line, m.outcome, m.probability) for m in run.measurements], "dsl.run")


def _check_parity(table, result) -> None:
    parity, slices = ref.parity_reference(table)
    index = int("".join(map(str, slices)), 2)
    expect(result.parity == parity and result.slice_parities == slices, "qc.parity_sat: parities")
    expect(result.measured_index == index and result.state.state.bits == 1 << index,
           "qc.parity_sat: measured ket")
    expect(result.oracle_calls == 1, "qc.parity_sat: oracle calls")


def circuits(rng: random.Random, env: dict):
    cases = []
    for lines, count in CIRCUIT_MIX:
        for _ in range(count):
            text, n, init, steps = gen_circuit(rng, lines)
            run_seed = rng.randrange(1 << 30)
            cases.append([Op("dsl.run", f"w{lines}",
                             lambda c, t=text, s=run_seed: _run_circuit(t, s),
                             lambda c, r, a=(n, init, steps): _check_circuit(*a, r))])
    for arity, count in PARITY_MIX:
        for _ in range(count):
            table = tuple(rng.randrange(2) for _ in range(1 << arity))
            cases.append([Op("qc.parity_sat", f"a{arity}",
                             lambda c, a=arity, t=table: qc.parity_sat(qc.BooleanFunction(a, t)),
                             lambda c, r, t=table: _check_parity(t, r))])
    return cases


# ---------------------------------------------------------------- mixed states

MIXED_MIX = ((32, 4), (64, 3), (128, 1), (256, 1))  # (|U|, cases per pass)
# Density calls stop at |U| = 128 (purity ~45 ms); the |U| = 256 case makes
# only the partition and attribute calls. A 256-element Fraction matrix
# costs 70-190 ms per call, and on a shared 2-vCPU host the best of a
# dozen such calls varied from 173 to 324 ms between 4-s windows, while the
# best of ~45-ms calls varied ~8% between 12-s windows. With them the
# run-to-run spread of ops_per_s was 0.2-0.3.
DENSITY_MAX_U = 128
BLOCK_COUNTS = (2, 4, 8)
VALUE_POOL = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))


def _universe(prefix: str, n: int):
    return space.Universe(tuple(f"{prefix}{j}" for j in range(n)))


def _labels(universe, mask: int):
    return [universe.labels[j] for j in bits_of(mask)]


def _random_mask(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n) | (1 << rng.randrange(n))


def _partition_masks(result) -> list[int]:
    return [b.bits.bits for b in result.blocks]


def _check_dits(result, masks, n: int, h: Fraction) -> None:
    expect(Fraction(len(result), n * n) == h, "partitions.dit_set: |dit| / |U|^2 != h")
    owner = {}
    for m in masks:
        for j in bits_of(m):
            owner[f"u{j}"] = m
    for x, y in result.pairs:
        if owner[x] == owner[y]:
            raise Mismatch(f"partitions.dit_set: ({x},{y}) lies in one block")


def mixed_case(rng: random.Random, n: int, k: int, complete: bool):
    universe = _universe("u", n)
    # The seed places the elements; block, level and subset sizes are fixed
    # (k equal blocks, f's three levels and g's five as even as n allows,
    # |S| = n/2), so the number of nonzero entries, dits and pairs, and with
    # them each call's cost, is the same for every seed.
    assign = [j % k for j in range(n)]
    rng.shuffle(assign)
    masks = ref.block_masks(assign, k)
    p = partitions.Partition.from_blocks(universe, [_labels(universe, m) for m in masks])
    f_vals = [VALUE_POOL[j % 3] for j in range(n)]
    rng.shuffle(f_vals)
    # a complete family (g names each element) costs more to decide than one
    # that is not complete, so the slot fixes which one it is
    g_vals = ([Fraction(j) for j in range(n)] if complete
              else [VALUE_POOL[j % len(VALUE_POOL)] for j in range(n)])
    rng.shuffle(g_vals)
    f = attributes.Attribute(universe, tuple(f_vals))
    g = attributes.Attribute(universe, tuple(g_vals))
    s_mask = sum(1 << j for j in rng.sample(range(n), n // 2))
    s = universe.subset(_labels(universe, s_mask))

    h = ref.logical_entropy(masks, n)
    levels = ref.level_masks(f_vals)
    joined = ref.join_masks(masks, levels)
    h_joined = ref.logical_entropy(joined, n)
    w = Fraction(1, n)
    size = f"u{n}"

    def op(name, call, check, keep=None):
        return Op(name, size, call, check, keep)

    ops = [
        op("density.rho_of_partition", lambda c: density.rho_of_partition(p),
           lambda c, r: ref.check_block_matrix(r.entries, n, masks, w, "rho_of_partition"), "rho"),
        op("density.purity", lambda c: density.purity(c["rho"]),
           lambda c, r: expect(1 - r == h, "density.purity: 1 - purity != h")),
        op("density.logical_entropy_rho", lambda c: density.logical_entropy_rho(c["rho"]),
           lambda c, r: expect(r == h, "density.logical_entropy_rho != h")),
        op("partitions.logical_entropy", lambda c: partitions.logical_entropy(p),
           lambda c, r: expect(r == h, "partitions.logical_entropy != h")),
        op("partitions.shannon_entropy", lambda c: partitions.shannon_entropy(p),
           lambda c, r: expect(abs(r - ref.shannon(masks, n)) < 1e-9, "partitions.shannon_entropy")),
        op("partitions.dit_set", lambda c: partitions.dit_set(p),
           lambda c, r: _check_dits(r, masks, n, h)),
        op("attributes.inverse_image_partition", lambda c: attributes.inverse_image_partition(f),
           lambda c, r: expect(sorted(_partition_masks(r)) == sorted(levels),
                               "attributes.inverse_image_partition: blocks"), "q"),
        op("partitions.join", lambda c: partitions.join(c["q"], p),
           lambda c, r: expect(sorted(_partition_masks(r)) == sorted(joined),
                               "partitions.join: blocks"), "joined"),
        op("partitions.refines", lambda c: partitions.refines(p, c["joined"]),
           lambda c, r: expect(r == ref.refines(masks, joined), "partitions.refines")),
        op("density.measure_density", lambda c: density.measure_density(f, c["rho"]),
           lambda c, r: ref.check_block_matrix(r.entries, n, joined, w, "measure_density"), "after"),
        op("density.entropy_increase", lambda c: density.entropy_increase(c["rho"], c["after"]),
           lambda c, r: expect(r == h_joined - h, "density.entropy_increase != h(after) - h(before)")),
        op("density.expectation", lambda c: density.expectation(f, c["rho"]),
           lambda c, r: expect(r == sum(f_vals, Fraction(0)) / n, "density.expectation")),
        op("density.rho_of_subset", lambda c: density.rho_of_subset(s),
           lambda c, r: ref.check_block_matrix(r.entries, n, [s_mask], Fraction(1, _pop(s_mask)),
                                               "rho_of_subset"), "rho_s"),
        op("density.purity", lambda c: density.purity(c["rho_s"]),
           lambda c, r: expect(r == 1, "density.purity of a subset's rho != 1")),
        op("attributes.is_complete", lambda c: attributes.is_complete([f, g]),
           lambda c, r: expect(r == (len(set(zip(f_vals, g_vals))) == n), "attributes.is_complete")),
    ]
    if n > DENSITY_MAX_U:
        ops = [o for o in ops if not o.name.startswith("density.")]
    return ops


def mixed_states(rng: random.Random, env: dict):
    # About half of a case's calls take under 1 ms and half over, so the
    # median call sits where the two meet, among calls of unlike cost that
    # change places from run to run. The second purity (of the subset's
    # rho) and complete families up to |U| = 64 move four more calls per
    # case over 1 ms, so the median falls among the ~1-ms rho calls at
    # |U| = 32. At |U| >= 128 an incomplete family already costs over 1 ms.
    cases, slot = [], 0
    for n, count in MIXED_MIX:
        for _ in range(count):
            cases.append(mixed_case(rng, n, BLOCK_COUNTS[slot % len(BLOCK_COUNTS)], n <= 64))
            slot += 1
    return cases


# ---------------------------------------------------------------- frames

FRAME_SIZES = (64, 128, 256)
KETS = 4
PRODUCT_FACTORS = (4, 8, 16)
PRODUCT_STATES = 3


def _matrix(rows):
    return gf2.GF2Matrix(len(rows), len(rows), tuple(rows))


def _check_born(result, labels, conv: int) -> None:
    w = Fraction(1, _pop(conv))
    want = {x: (w if (conv >> j) & 1 else Fraction(0)) for j, x in enumerate(labels)}
    expect(result == want, "space.born: not uniform over the converted support")


def _check_measure_probs(result, f_vals, s_mask) -> None:
    counts: dict = {}
    for j in bits_of(s_mask):
        counts[f_vals[j]] = counts.get(f_vals[j], 0) + 1
    want = {v: Fraction(c, _pop(s_mask)) for v, c in counts.items()}
    expect(result == want, "attributes.measure_probs")


def frame_case(rng: random.Random, n: int):
    universe = _universe("u", n)
    flabels = tuple(f"f{j}" for j in range(n))
    m_rows, m_inv = ref.random_nonsingular(n, rng)
    d_rows, d_inv = ref.random_nonsingular(n, rng)
    m_mat, d_mat = _matrix(m_rows), _matrix(d_rows)
    masks = [_random_mask(rng, n) for _ in range(KETS)]
    kets = [universe.subset(_labels(universe, m)) for m in masks]
    s01 = kets[0] + kets[1]
    f_vals = [rng.choice(VALUE_POOL) for _ in range(n)]
    f = attributes.Attribute(universe, tuple(f_vals))
    eig = [f_vals[rng.choice(list(bits_of(m)))] for m in masks]
    ef_inv = ref.matmul(m_inv, d_inv)  # (D M)^-1 = M^-1 D^-1
    size = f"u{n}"

    def op(name, call, check, keep=None):
        return Op(name, size, call, check, keep)

    ops = [op("space.BasisFrame", lambda c: space.BasisFrame("F", flabels, m_mat),
              lambda c, r: expect(r.matrix.row_bits == m_rows and r.labels == flabels,
                                  "space.BasisFrame"), "frame")]
    for i, (s, mask) in enumerate(zip(kets, masks)):
        conv = ref.matvec(m_inv, mask)
        t, t_mask = kets[(i + 1) % KETS], masks[(i + 1) % KETS]
        ops += [
            op("space.to_basis", lambda c, s=s: space.to_basis(s, c["frame"]),
               lambda c, r, v=conv: expect(r.bits.bits == v, "space.to_basis"), f"c{i}"),
            op("space.from_basis", lambda c, i=i: space.from_basis(c[f"c{i}"], c["frame"], universe),
               lambda c, r, v=mask: expect(r.bits.bits == v, "from_basis(to_basis(s)) != s")),
            op("space.born", lambda c, s=s: space.born(s, c["frame"]),
               lambda c, r, v=conv: _check_born(r, flabels, v)),
            op("space.bracket", lambda c, s=s, t=t: space.bracket(s, t),
               lambda c, r, v=_pop(mask & t_mask): expect(r == v, "space.bracket")),
        ]
    ops.append(op("dynamics.Dynamics", lambda c: dynamics.Dynamics(d_mat),
                  lambda c, r: expect(r.matrix.row_bits == d_rows, "dynamics.Dynamics"), "dyn"))
    for i, (s, mask) in enumerate(zip(kets, masks)):
        ops.append(op("dynamics.evolve", lambda c, s=s: dynamics.evolve(c["dyn"], s),
                      lambda c, r, v=ref.matvec(d_rows, mask): expect(r.bits.bits == v, "dynamics.evolve"),
                      f"e{i}"))
    ops += [
        op("dynamics.evolve", lambda c: dynamics.evolve(c["dyn"], s01),
           lambda c, r: expect(r.bits.bits == c["e0"].bits.bits ^ c["e1"].bits.bits,
                               "dynamics.evolve is not XOR-linear")),
        op("dynamics.evolved_frame", lambda c: dynamics.evolved_frame(c["dyn"], c["frame"]),
           lambda c, r: expect(r.matrix.row_bits == ref.matmul(d_rows, m_rows),
                               "dynamics.evolved_frame"), "ef"),
        op("dynamics.interference_coefficients",
           lambda c: dynamics.interference_coefficients(c["c0"], c["frame"], c["ef"]),
           lambda c, r, v=ref.matvec(ef_inv, masks[0]): expect(
               list(r.values()) == [(v >> j) & 1 for j in range(n)],
               "interference_coefficients disagrees with to_basis")),
    ]
    for i in range(2):
        s, mask, r_val = kets[i], masks[i], eig[i]
        level = sum(1 << j for j, v in enumerate(f_vals) if v == r_val)
        ops += [
            op("attributes.measure_probs", lambda c, s=s: attributes.measure_probs(f, s),
               lambda c, r, m=mask: _check_measure_probs(r, f_vals, m)),
            op("attributes.measure_given", lambda c, s=s, v=r_val: attributes.measure_given(f, s, v),
               lambda c, r, m=mask, lv=level, v=r_val: expect(
                   r.eigenvalue == v and r.post_state.bits.bits == lv & m
                   and r.probability == Fraction(_pop(lv & m), _pop(m)), "attributes.measure_given")),
        ]
    return ops


def _check_product(result, want: int, k: int, llabels, rlabels) -> None:
    got = {(llabels.index(x), rlabels.index(y)) for x, y in result.pairs}
    expect(got == {divmod(j, k) for j in bits_of(want)}, "entangle.product_to_frame")


def _check_marginals(result, mask: int, k: int, left_labels, right_labels) -> None:
    total = _pop(mask)
    left, right = [0] * k, [0] * k
    for j in bits_of(mask):
        left[j // k] += 1
        right[j % k] += 1
    want = ({x: Fraction(c, total) for x, c in zip(left_labels, left)},
            {y: Fraction(c, total) for y, c in zip(right_labels, right)})
    expect(tuple(result) == want, "entangle.marginals")


def product_case(rng: random.Random, k: int):
    left, right = _universe("l", k), _universe("r", k)
    pspace = entangle.ProductUniverse(left, right)
    llabels = tuple(f"x{j}" for j in range(k))
    rlabels = tuple(f"y{j}" for j in range(k))
    l_rows, l_inv = ref.random_nonsingular(k, rng)
    r_rows, r_inv = ref.random_nonsingular(k, rng)
    l_mat, r_mat = _matrix(l_rows), _matrix(r_rows)
    masks = []
    for i in range(PRODUCT_STATES):
        if i == 0:  # one separated state: a product of two factor subsets
            a, b = _random_mask(rng, k), _random_mask(rng, k)
            masks.append(sum(1 << (x * k + y) for x in bits_of(a) for y in bits_of(b)))
        else:
            masks.append(_random_mask(rng, k * k))
    size = f"k{k}"
    ops = [Op("space.BasisFrame", size, lambda c: space.BasisFrame("L", llabels, l_mat),
              lambda c, r: expect(r.matrix.row_bits == l_rows, "space.BasisFrame"), "lf"),
           Op("space.BasisFrame", size, lambda c: space.BasisFrame("R", rlabels, r_mat),
              lambda c, r: expect(r.matrix.row_bits == r_rows, "space.BasisFrame"), "rf")]
    for mask in masks:
        state = pspace.state((left.labels[j // k], right.labels[j % k]) for j in bits_of(mask))
        rows_used = {j // k for j in bits_of(mask)}
        cols_used = {j % k for j in bits_of(mask)}
        ops += [
            Op("entangle.product_to_frame", size,
               lambda c, s=state: entangle.product_to_frame(s, c["lf"], c["rf"]),
               lambda c, r, v=ref.kron_apply(l_inv, r_inv, k, mask): _check_product(r, v, k, llabels, rlabels)),
            Op("entangle.is_separated", size, lambda c, s=state: entangle.is_separated(s),
               lambda c, r, v=_pop(mask) == len(rows_used) * len(cols_used): expect(
                   r == v, "entangle.is_separated")),
            Op("entangle.marginals", size, lambda c, s=state: entangle.marginals(entangle.joint(s)),
               lambda c, r, m=mask: _check_marginals(r, m, k, left.labels, right.labels)),
        ]
    return ops


def frames(rng: random.Random, env: dict):
    return ([frame_case(rng, n) for n in FRAME_SIZES]
            + [product_case(rng, k) for k in PRODUCT_FACTORS])


# ---------------------------------------------------------------- cli

ABC, AB = ("a", "b", "c"), ("a", "b")
CALLS_PER_FORMAT = 3
GENERATED_RUNS = 8  # small generated circuits per format, beside the six shipped ones
ERROR_NAME = re.compile(r"^[A-Za-z_]\w*: ")


def invoke(argv):
    """cli.main in-process with stdout and stderr captured; returns (exit code, out, err).

    argparse's usage exit arrives as SystemExit; any other exception
    escapes, as it would escape `setqm` as a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _small_inverse(rows):
    n = len(rows)
    for cand in _all_matrices(n):
        if ref.matmul(rows, cand) == tuple(1 << i for i in range(n)):
            return cand
    raise Mismatch("preset frame is singular")


def _all_matrices(n):
    for code in range(1 << (n * n)):
        yield tuple((code >> (i * n)) & ((1 << n) - 1) for i in range(n))


def _fracs(d: dict) -> dict:
    return {k: Fraction(v) for k, v in d.items()}


class _Cli:
    """Argument generators and JSON checks for each subcommand on the preset universes."""

    def __init__(self, rng: random.Random, workdir: Path, root: Path):
        self.rng = rng
        self.workdir = workdir
        self.frames = {}
        for dim, fs in ((3, presets.frames_abc()), (2, presets.frames_ab())):
            self.frames[dim] = {f.name: (f.labels, f.matrix.row_bits, _small_inverse(f.matrix.row_bits))
                                for f in fs}
        slit = presets.double_slit_setup()
        position = slit.position_frame.matrix.row_bits
        self.slit = (slit.dynamics.matrix.row_bits, position, _small_inverse(position),
                     slit.slit_state.bits.bits)
        self.circuits = sorted((root / "circuits").glob("*.qc2"))

    # -- input generators
    def subset(self, labels, nonempty=True):
        mask = _random_mask(self.rng, len(labels)) if nonempty else self.rng.getrandbits(len(labels))
        return mask, "{" + ",".join(labels[j] for j in bits_of(mask)) + "}"

    def partition(self, labels):
        assign = [self.rng.randrange(len(labels)) for _ in labels]
        masks = ref.block_masks(assign, len(labels))
        text = "|".join("{" + ",".join(labels[j] for j in bits_of(m)) + "}" for m in masks)
        return masks, text

    def attr(self, labels):
        vals = [Fraction(self.rng.randint(-2, 3)) for _ in labels]
        return vals, ",".join(f"{x}:{v}" for x, v in zip(labels, vals))

    # -- well-formed calls: (argv, check of the parsed JSON output)
    def ket_table(self):
        dim = self.rng.choice((2, 3))
        return ["ket-table", "--dim", str(dim)], lambda o: self.check_ket_table(dim, o)

    def check_ket_table(self, dim, rows):
        expect(len(rows) == 1 << dim, "cli ket-table: row count")
        labels = ABC if dim == 3 else AB
        for row in rows:
            v = sum(1 << labels.index(x) for x in row["U"])
            for name, (flabels, _, inv) in self.frames[dim].items():
                conv = ref.matvec(inv, v)
                expect(row[name] == [flabels[j] for j in bits_of(conv)], f"cli ket-table: {name}")

    def bracket(self):
        dim = self.rng.choice((2, 3))
        labels = ABC if dim == 3 else AB
        (t, t_text), (s, s_text) = self.subset(labels, False), self.subset(labels, False)
        return (["bracket", t_text, s_text, "--dim", str(dim)],
                lambda o: expect(o == {"bracket": _pop(t & s)}, "cli bracket"))

    def born(self):
        dim = self.rng.choice((2, 3))
        labels = ABC if dim == 3 else AB
        mask, text = self.subset(labels)
        name = self.rng.choice(sorted(self.frames[dim]))
        flabels, _, inv = self.frames[dim][name]
        conv = ref.matvec(inv, mask)

        def check(o):
            _check_born(_fracs(o["probabilities"]), flabels, conv)
        return ["born", text, "--frame", name, "--dim", str(dim)], check

    def measure(self):
        vals, attr = self.attr(ABC)
        mask, state = self.subset(ABC)

        def check(o):
            probs = _fracs(o["probabilities"])
            _check_measure_probs({Fraction(k): v for k, v in probs.items()}, vals, mask)
            eig = Fraction(o["eigenvalue"])
            level = sum(1 << j for j, v in enumerate(vals) if v == eig) & mask
            expect(level != 0 and Fraction(o["probability"]) == Fraction(_pop(level), _pop(mask))
                   and o["post_state"] == [ABC[j] for j in bits_of(level)], "cli measure: outcome")
        return ["measure", "--attr", attr, "--state", state, "--seed", str(self.rng.randrange(100))], check

    def entropy(self):
        masks, text = self.partition(ABC)
        h = ref.logical_entropy(masks, 3)
        return (["entropy", "--partition", text],
                lambda o: expect(Fraction(o["logical"]) == h
                                 and abs(o["shannon"] - ref.shannon(masks, 3)) < 1e-9, "cli entropy"))

    def density(self):
        if self.rng.random() < 0.5:
            masks, text = self.partition(ABC)
            argv, w = ["density", "--partition", text], Fraction(1, 3)
        else:
            mask, text = self.subset(ABC)
            masks, argv, w = [mask], ["density", "--state", text], Fraction(1, _pop(mask))

        def check(o):
            ref.check_block_matrix([[Fraction(e) for e in row] for row in o["matrix"]], 3, masks, w,
                                   "cli density")
            purity = Fraction(o["purity"])
            expect(1 - purity == Fraction(o["logical_entropy"]) == 1 - sum(_pop(m) ** 2 for m in masks) * w * w,
                   "cli density: 1 - purity != h")
        return argv, check

    def measure_density(self):
        vals, attr = self.attr(ABC)
        if self.rng.random() < 0.5:
            masks, text = self.partition(ABC)
            argv = ["measure-density", "--attr", attr, "--partition", text]
        else:
            masks, argv = [0b111], ["measure-density", "--attr", attr]
        joined = ref.join_masks(masks, ref.level_masks(vals))
        w = Fraction(1, 3)

        def check(o):
            before = [[Fraction(e) for e in row] for row in o["before"]]
            after = [[Fraction(e) for e in row] for row in o["after"]]
            ref.check_block_matrix(before, 3, masks, w, "cli measure-density before")
            ref.check_block_matrix(after, 3, joined, w, "cli measure-density after")
            expect(Fraction(o["entropy_increase"])
                   == ref.logical_entropy(joined, 3) - ref.logical_entropy(masks, 3),
                   "cli measure-density: entropy increase")
        return argv, check

    def double_slit(self):
        at_slits = self.rng.random() < 0.5
        d_rows, f_rows, f_inv, slit = self.slit

        def born(mask):
            conv = ref.matvec(f_inv, mask)
            return [Fraction(1, _pop(conv)) if (conv >> j) & 1 else Fraction(0) for j in range(3)]
        if at_slits:
            want = [Fraction(0)] * 3
            for j, p in enumerate(born(slit)):
                if p:  # collapse onto position ket j, then fly
                    flown = ref.matvec(d_rows, ref.matvec(f_rows, 1 << j))
                    want = [a + p * q for a, q in zip(want, born(flown))]
        else:
            want = born(ref.matvec(d_rows, slit))
        argv = ["double-slit"] + (["--measure-at-slits"] if at_slits else [])
        return argv, lambda o: expect(list(_fracs(o["distribution"]).values()) == want, "cli double-slit")

    def _seq(self, state, lf, lo, rf, ro):
        """Sequential pair probability on the two-element universe, from the frame matrices."""
        _, l_rows, l_inv = self.frames[2][lf]
        _, _, r_inv = self.frames[2][rf]
        expressed = ref.kron_apply(l_inv, l_inv, 2, state)
        kept = [j % 2 for j in bits_of(expressed) if j // 2 == lo]
        if not kept:
            return Fraction(0)
        right = ref.matvec(r_inv, ref.matvec(l_rows, sum(1 << y for y in kept)))
        p_right = Fraction(1, _pop(right)) if (right >> ro) & 1 else Fraction(0)
        return Fraction(len(kept), _pop(expressed)) * p_right

    def bell(self):
        if self.rng.random() < 0.3:
            argv, state = ["bell"], 0b1001  # the preset {(a,a),(b,b)}
        else:
            state = _random_mask(self.rng, 4)
            pairs = ",".join(f"({AB[j // 2]},{AB[j % 2]})" for j in bits_of(state))
            argv = ["bell", "--state", "{" + pairs + "}"]
        terms = [self._seq(state, "U", 0, "U'", 0), self._seq(state, "U'", 1, "U''", 1),
                 self._seq(state, "U", 0, "U''", 1)]

        def check(o):
            got = list(_fracs(o["terms"]).values())
            lhs, rhs = terms[0] + terms[1], terms[2]
            expect(got == terms and Fraction(o["lhs"]) == lhs and Fraction(o["rhs"]) == rhs
                   and o["violated"] == (lhs < rhs), "cli bell")
        return argv, check

    def teleport(self):
        alpha, beta = self.rng.choice(((0, 1), (1, 0), (1, 1)))
        phi0 = (1 << 0 if alpha else 0) | (1 << 2 if beta else 0)  # |00> is index 0, |10> index 2
        phi1 = ref.local_gate(phi0, 2, 1, ref.ONE_LINE["H0"])
        phi2 = ref.cnot(phi1, 2, 1, 0)

        def kets(mask):
            return [format(k, "02b") for k in bits_of(mask)]

        def check(o):
            expect(o["phi0"] == kets(phi0) and o["phi1"] == kets(phi1) and o["phi2"] == kets(phi2),
                   "cli teleport: stages")
            expect(o["bob"] == [alpha, beta] and o["teleported"] is True, "cli teleport: bob")
        argv = ["teleport", "--alpha", str(alpha), "--beta", str(beta), "--seed", str(self.rng.randrange(100))]
        return argv, check

    def parity_sat(self):
        table = tuple(self.rng.randrange(2) for _ in range(1 << self.rng.randint(1, 3)))
        parity, slices = ref.parity_reference(table)
        return (["parity-sat", "--table", "".join(map(str, table))],
                lambda o: expect(o["parity"] == parity and tuple(o["slice_parities"]) == slices
                                 and o["oracle_calls"] == 1, "cli parity-sat"))

    def run_file(self, path: Path):
        lines, init, steps = read_circuit(path.read_text(encoding="utf-8"))

        def check(o):
            states = [sum(1 << int(b, 2) for b in t["state"]) for t in o["trace"]]
            ms = [(m["line"], m["outcome"], Fraction(m["probability"])) for m in o["measurements"]]
            check_trace(lines, init, steps, states, ms, f"cli run {path.name}")
        return ["run", str(path), "--seed", str(self.rng.randrange(100))], check

    def malformed(self):
        """(argv, README exit code). The first five escape as KeyError/ValueError today.

        Inputs such as `lines 40` are left out: the register would need a
        2^40-row identity, which exhausts memory rather than failing.
        """
        z = self.rng.choice("xyz")
        bad_digit = self.workdir / "bad_digit.qc2"
        bad_digit.write_text("lines ²\ngate X 0\n", encoding="utf-8")
        bad_syntax = self.workdir / "bad_syntax.qc2"
        bad_syntax.write_text("lines 2\ngate H7 0\n", encoding="utf-8")
        return [
            (["bracket", "{a," + z + "}", "{a}"], 1),
            (["entropy", "--partition", "{a}|{b}"], 1),
            (["measure", "--attr", "a:1,b:2", "--state", "{a}"], 1),
            (["bell", "--state", "{(a," + z + ")}"], 1),
            (["run", str(bad_digit)], 1),
            (["parity-sat", "--table", self.rng.choice(("101", "10a1", "1"))], 1),
            (["born", "{}", "--frame", "U"], 1),
            (["run", str(bad_syntax)], 1),
            (["teleport", "--alpha", "0", "--beta", "0"], 1),
            (["born", "{a}"], 2),
            (["entropy", "--partition", "{a}|{b,c}", "--dim", "4"], 2),
        ]


def _check_ok(code, out, err, fmt, check, argv) -> None:
    if code != 0 or err:
        raise Mismatch(f"cli {' '.join(argv)}: exit {code}, stderr {err.strip()[:80]!r}")
    if fmt == "json":
        check(json.loads(out))
    else:
        expect(out.strip() != "", f"cli {' '.join(argv)}: empty table output")


def _check_contract(code, err, expected, argv) -> None:
    if "Traceback" in err:
        raise ContractBreak(f"cli {' '.join(argv)}: traceback on stderr")
    if code != expected:
        raise ContractBreak(f"cli {' '.join(argv)}: exit {code}, README promises {expected}")
    if expected == 1 and not ERROR_NAME.match(err):
        raise ContractBreak(f"cli {' '.join(argv)}: stderr does not start with the error name")
    if expected == 2 and "usage:" not in err:
        raise ContractBreak(f"cli {' '.join(argv)}: no usage message")


def cli_calls(rng: random.Random, env: dict):
    workdir = env["workdir"]
    g = _Cli(rng, workdir, env["root"])
    calls = []
    commands = (g.ket_table, g.bracket, g.born, g.measure, g.entropy, g.density, g.measure_density,
                g.double_slit, g.bell, g.teleport, g.parity_sat)
    for fmt in ("table", "json"):
        for command in commands:
            for _ in range(CALLS_PER_FORMAT):
                argv, check = command()
                calls.append((argv + ["--format", fmt], fmt, check))
        files = list(g.circuits)
        for i in range(GENERATED_RUNS):
            path = workdir / f"gen{i}_{fmt}.qc2"
            path.write_text(gen_circuit(rng, rng.randint(2, 4))[0], encoding="utf-8")
            files.append(path)
        for path in files:
            argv, check = g.run_file(path)
            calls.append((argv + ["--format", fmt], fmt, check))
    cases = []
    for argv, fmt, check in calls:
        cases.append([Op("cli.main", argv[0], lambda c, a=argv: invoke(a),
                         lambda c, r, a=argv, f=fmt, k=check: _check_ok(*r, f, k, a))])
    for argv, expected in g.malformed():
        cases.append([Op("cli.main", "malformed", lambda c, a=argv: invoke(a),
                         lambda c, r, a=argv, e=expected: _check_contract(r[0], r[2], e, a))])
    return cases


WORKLOADS = {
    "circuits": circuits,
    "mixed_states": mixed_states,
    "frames": frames,
    "cli": cli_calls,
}

# Set-up runs the first case of each of these size classes once (None: of
# every class), so first-call costs stay out of the timings.
WARM = {
    "circuits": ("w6", "w8", "a2", "a3"),
    "mixed_states": ("u32",),
    "frames": ("u64", "k4"),
    "cli": None,
}


def warm_cases(workload: str, cases):
    first = {}
    for case in cases:
        size = case[0].size
        if WARM[workload] is None or size in WARM[workload]:
            first.setdefault(size, case)
    return list(first.values())


def build(workload: str, seed: int, root: Path, workdir: Path):
    """The pass for a workload: its cases in a seed-shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = WORKLOADS[workload](rng, {"root": root, "workdir": workdir})
    rng.shuffle(cases)
    return cases
