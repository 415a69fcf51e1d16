"""Exact references that share no code with setqm.

Every check here recomputes a result from the generator's own description
of the input (bit masks, block assignments, matrices built together with
their inverses) and compares it with `==`. A wrong value raises
`Mismatch`; nothing here imports setqm.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


class Mismatch(Exception):
    """An op returned a value that differs from the exact reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def bits_of(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# ---------------------------------------------------------------- registers

ONE_LINE = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "H0": ((1, 0), (1, 1)),
    "H1": ((1, 1), (0, 1)),
    "XH0": ((1, 1), (1, 0)),
    "XH1": ((0, 1), (1, 1)),
}


def local_gate(state: int, lines: int, line: int, rows) -> int:
    """Apply a 2x2 matrix (rows[out][in]) to one line, one basis index at a time.

    Line 0 is the most significant bit of a basis index.
    """
    pos = lines - 1 - line
    out = 0
    for k in bits_of(state):
        b = (k >> pos) & 1
        base = k & ~(1 << pos)
        for b_out in (0, 1):
            if rows[b_out][b]:
                out ^= 1 << (base | (b_out << pos))
    return out


def cnot(state: int, lines: int, control: int, target: int) -> int:
    """Flip the target line of every basis index whose control line is 1."""
    cpos, tpos = lines - 1 - control, lines - 1 - target
    out = 0
    for k in bits_of(state):
        out ^= 1 << (k ^ (((k >> cpos) & 1) << tpos))
    return out


def ef_factors(table: str):
    """Per-line 2x2 factors X^t[2p+1] H_t[2p] of the evaluation gate, line p = prefix p."""
    factors = []
    for p in range(len(table) // 2):
        h = ONE_LINE["H1" if table[2 * p] == "1" else "H0"]
        if table[2 * p + 1] == "1":
            h = (h[1], h[0])  # X on the left swaps the rows
        factors.append(h)
    return factors


def ef_apply(state: int, lines: int, table: str) -> int:
    for line, rows in enumerate(ef_factors(table)):
        state = local_gate(state, lines, line, rows)
    return state


def measure_keep(state: int, lines: int, line: int, outcome: int) -> int:
    pos = lines - 1 - line
    out = 0
    for k in bits_of(state):
        if (k >> pos) & 1 == outcome:
            out |= 1 << k
    return out


def parity_reference(table) -> tuple[int, tuple[int, ...]]:
    slices = tuple(table[2 * p] ^ table[2 * p + 1] for p in range(len(table) // 2))
    return sum(table) & 1, slices


# ---------------------------------------------------------------- GF(2) matrices

def matvec(rows, v: int) -> int:
    """Row-packed matrix times bit vector, one row at a time."""
    out = 0
    for i, row in enumerate(rows):
        if bin(row & v).count("1") & 1:
            out |= 1 << i
    return out


def matmul(a, b):
    out = []
    for row in a:
        acc = 0
        for j in bits_of(row):
            acc ^= b[j]
        out.append(acc)
    return tuple(out)


def random_nonsingular(n: int, rng: random.Random):
    """A random n x n 0/1 matrix and its inverse, from the identity by elementary row ops.

    Adding row j into row i is E = I + e_i e_j^T with E^-1 = E, so the
    inverse receives the same op as a column op on the right: column i is
    added into column j. A swap of rows i, j swaps columns i, j of the
    inverse.
    """
    a = [1 << i for i in range(n)]
    inv = [1 << i for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            a[i], a[j] = a[j], a[i]
            for r in range(n):
                bi, bj = (inv[r] >> i) & 1, (inv[r] >> j) & 1
                if bi != bj:
                    inv[r] ^= (1 << i) | (1 << j)
        else:
            a[i] ^= a[j]
            for r in range(n):
                if (inv[r] >> i) & 1:
                    inv[r] ^= 1 << j
    return tuple(a), tuple(inv)


def kron_apply(left_inv, right_inv, k_right: int, state: int) -> int:
    """(L (x) R) applied to a product-space bitset, pair by pair (index = i*k_right + j)."""
    out = 0
    for idx in bits_of(state):
        i, j = divmod(idx, k_right)
        col_l = sum(((row >> i) & 1) << a for a, row in enumerate(left_inv))
        col_r = sum(((row >> j) & 1) << b for b, row in enumerate(right_inv))
        for a in bits_of(col_l):
            for b in bits_of(col_r):
                out ^= 1 << (a * k_right + b)
    return out


# ---------------------------------------------------------------- partitions and densities

def block_masks(assign, k: int) -> list[int]:
    """Bit masks of the blocks of a block assignment (element j -> block id)."""
    masks = [0] * k
    for j, b in enumerate(assign):
        masks[b] |= 1 << j
    return [m for m in masks if m]


def logical_entropy(masks, n: int) -> Fraction:
    return 1 - Fraction(sum(bin(m).count("1") ** 2 for m in masks), n * n)


def shannon(masks, n: int) -> float:
    return sum((c / n) * math.log2(n / c) for c in (bin(m).count("1") for m in masks))


def join_masks(p, q) -> set[int]:
    return {b & c for b in p for c in q if b & c}


def level_masks(values) -> list[int]:
    by_value: dict = {}
    for j, v in enumerate(values):
        by_value[v] = by_value.get(v, 0) | (1 << j)
    return list(by_value.values())


def refines(coarse, fine) -> bool:
    return all(any(b & ~c == 0 for c in coarse) for b in fine)


def check_block_matrix(entries, n: int, masks, weight: Fraction, what: str) -> None:
    """Entry (j,k) must be `weight` when j and k share a mask, else 0."""
    expect(len(entries) == n, f"{what}: {len(entries)} rows, expected {n}")
    owner = [0] * n
    for m in masks:
        for j in bits_of(m):
            owner[j] = m
    zero = Fraction(0)
    for j, row in enumerate(entries):
        expect(len(row) == n, f"{what}: row {j} has {len(row)} entries")
        m = owner[j]
        for k, e in enumerate(row):
            want = weight if m and (m >> k) & 1 else zero
            if e != want:
                raise Mismatch(f"{what}: entry ({j},{k}) is {e}, expected {want}")
