import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setqm.errors import DimMismatch, InvalidArgument, LengthMismatch, NotSquare, Singular
from setqm.gf2 import (
    BitVec,
    GF2Matrix,
    add,
    invert,
    is_nonsingular,
    kron,
    mat_apply,
    mat_mul,
    nth_set_bit,
    solve,
)

DOUBLE_SLIT = GF2Matrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def vec(n, *indices):
    return BitVec.from_indices(n, indices)


def all_matrices(n):
    for bits in range(1 << (n * n)):
        rows = tuple((bits >> (i * n)) & ((1 << n) - 1) for i in range(n))
        yield GF2Matrix(n, n, rows)


def test_add_symmetric_difference():
    # {a,b} + {a,b,c} = {c}
    assert add(vec(3, 0, 1), vec(3, 0, 1, 2)) == vec(3, 2)
    # {a,b} + {b,c} = {a,c}
    assert add(vec(3, 0, 1), vec(3, 1, 2)) == vec(3, 0, 2)


def test_add_self_inverse():
    v = vec(4, 0, 2, 3)
    assert add(v, v) == BitVec.zero(4)


def test_add_length_mismatch():
    with pytest.raises(LengthMismatch):
        add(vec(3, 0), vec(4, 0))


def test_add_group_laws():
    rng = random.Random(7)
    for _ in range(50):
        u, v, w = (BitVec(5, rng.randrange(32)) for _ in range(3))
        assert add(u, v) == add(v, u)
        assert add(add(u, v), w) == add(u, add(v, w))
        assert add(u, BitVec.zero(5)) == u


def test_mat_apply_identity():
    v = vec(3, 0, 2)
    assert mat_apply(GF2Matrix.identity(3), v) == v


def test_mat_apply_double_slit():
    assert mat_apply(DOUBLE_SLIT, vec(3, 0)) == vec(3, 0, 1)
    # superposition at position b cancels out
    assert mat_apply(DOUBLE_SLIT, vec(3, 0, 2)) == vec(3, 0, 2)


def test_mat_apply_dim_mismatch():
    with pytest.raises(DimMismatch):
        mat_apply(DOUBLE_SLIT, vec(2, 0))


def test_mat_mul_x_h0():
    x = GF2Matrix.from_rows([[0, 1], [1, 0]])
    h0 = GF2Matrix.from_rows([[1, 0], [1, 1]])
    assert mat_mul(x, h0).to_lists() == [[1, 1], [1, 0]]
    assert mat_mul(x, x) == GF2Matrix.identity(2)
    assert mat_mul(GF2Matrix.identity(3), DOUBLE_SLIT) == DOUBLE_SLIT


def test_mat_mul_dim_mismatch():
    with pytest.raises(DimMismatch):
        mat_mul(DOUBLE_SLIT, GF2Matrix.identity(2))


def test_nonsingular():
    assert is_nonsingular(GF2Matrix.identity(4))
    assert is_nonsingular(DOUBLE_SLIT)
    assert not is_nonsingular(GF2Matrix.from_rows([[1, 1], [1, 1]]))


def test_nonsingular_not_square():
    with pytest.raises(NotSquare):
        is_nonsingular(GF2Matrix(2, 3, (0b111, 0b101)))


def test_invert_not_square():
    with pytest.raises(NotSquare):
        invert(GF2Matrix(2, 3, (0b111, 0b101)))


def test_invert():
    assert invert(GF2Matrix.identity(3)) == GF2Matrix.identity(3)
    h0 = GF2Matrix.from_rows([[1, 0], [1, 1]])
    assert invert(h0) == h0  # self-inverse mod 2
    with pytest.raises(Singular):
        invert(GF2Matrix.from_rows([[1, 1], [1, 1]]))


def test_invert_matches_nonsingularity_exhaustively():
    # 2x2 exhaustively, 3x3 exhaustively: invert succeeds iff full rank
    for n in (2, 3):
        for m in all_matrices(n):
            if is_nonsingular(m):
                assert mat_mul(invert(m), m) == GF2Matrix.identity(n)
                assert mat_mul(m, invert(m)) == GF2Matrix.identity(n)
            else:
                with pytest.raises(Singular):
                    invert(m)


def test_column_outside_the_matrix_raises():
    m = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert [m.column(j).bits for j in range(3)] == [0b01, 0b10, 0b11]
    for j in (-1, 3, 64):
        with pytest.raises(InvalidArgument, match="outside 0..2"):
            m.column(j)


def test_solve_ket_table_columns():
    # columns {a'}={a,b}, {b'}={b,c}, {c'}={a,b,c}
    frame = GF2Matrix.from_rows([[1, 0, 1], [1, 1, 1], [0, 1, 1]])
    assert solve(frame, vec(3, 0)) == BitVec.from_coords([0, 1, 1])  # {a} = {b',c'}
    assert solve(frame, vec(3, 0, 2)) == BitVec.from_coords([1, 1, 0])  # {a,c} = {a',b'}
    b = vec(3, 1, 2)
    assert solve(GF2Matrix.identity(3), b) == b


def test_solve_unique_by_brute_force():
    rng = random.Random(3)
    for n in (2, 3, 4):
        mats = [m for m in all_matrices(n) if is_nonsingular(m)] if n < 4 else None
        for trial in range(20):
            if mats is not None:
                m = mats[rng.randrange(len(mats))]
            else:
                while True:
                    m = GF2Matrix(n, n, tuple(rng.randrange(1 << n) for _ in range(n)))
                    if is_nonsingular(m):
                        break
            b = BitVec(n, rng.randrange(1 << n))
            x = solve(m, b)
            solutions = [
                bits for bits in range(1 << n)
                if mat_apply(m, BitVec(n, bits)) == b
            ]
            assert solutions == [x.bits]


def test_kron_block_layout():
    i2 = GF2Matrix.identity(2)
    h0 = GF2Matrix.from_rows([[1, 0], [1, 1]])
    assert kron(i2, h0).to_lists() == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 1],
    ]
    assert kron(i2, i2) == GF2Matrix.identity(4)


def test_kron_implication_evaluation_matrix():
    xh1 = GF2Matrix.from_rows([[0, 1], [1, 1]])
    xh0 = GF2Matrix.from_rows([[1, 1], [1, 0]])
    assert kron(xh1, xh0).to_lists() == [
        [0, 0, 1, 1],
        [0, 0, 1, 0],
        [1, 1, 1, 1],
        [1, 0, 1, 0],
    ]


def test_kron_mixed_product_law():
    rng = random.Random(11)
    for _ in range(25):
        a, c = (GF2Matrix(2, 2, (rng.randrange(4), rng.randrange(4))) for _ in range(2))
        b, d = (GF2Matrix(3, 3, tuple(rng.randrange(8) for _ in range(3))) for _ in range(2))
        assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


def test_apply_associates_with_mul():
    rng = random.Random(5)
    for _ in range(25):
        a = GF2Matrix(3, 3, tuple(rng.randrange(8) for _ in range(3)))
        b = GF2Matrix(3, 3, tuple(rng.randrange(8) for _ in range(3)))
        v = BitVec(3, rng.randrange(8))
        assert mat_apply(mat_mul(a, b), v) == mat_apply(a, mat_apply(b, v))


def _mask(indices):
    return sum(1 << j for j in indices)


@st.composite
def bitvecs(draw):
    """Dense, sparse, empty and full vectors up to 300 coordinates."""
    length = draw(st.integers(1, 300))
    full = (1 << length) - 1
    sparse = st.sets(st.integers(0, length - 1), max_size=4).map(_mask)
    return BitVec(length, draw(st.one_of(st.integers(0, full), sparse, st.just(full))))


@given(bitvecs())
def test_indices_and_coords_match_per_coordinate_shifts(v):
    assert v.coords() == tuple((v.bits >> j) & 1 for j in range(v.length))
    assert v.indices() == tuple(j for j in range(v.length) if (v.bits >> j) & 1)


@given(bitvecs(), st.data())
def test_nth_set_bit_matches_indices(v, data):
    if v.is_zero:
        return
    n = data.draw(st.integers(0, v.weight() - 1))
    assert nth_set_bit(v.bits, n) == v.indices()[n]


# -- the kernel against the slow reference it replaced --


def _eliminate(a):
    """Reference Gauss-Jordan on a square matrix; returns (reduced rows, transform rows, rank).

    Two row lists and a shift per test: the transform starts as the identity
    and receives every row operation, so transform = E with E*a = reduced.
    """
    n = a.rows
    work = list(a.row_bits)
    trans = [1 << i for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        trans[rank], trans[pivot] = trans[pivot], trans[rank]
        for r in range(n):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
                trans[r] ^= trans[rank]
        rank += 1
    return work, trans, rank


def reference_inverse(a):
    """The inverse read off the reference elimination, or None below full rank."""
    work, trans, rank = _eliminate(a)
    if rank < a.rows:
        return None
    inv = [0] * a.rows  # full-rank `work` is a row permutation of the identity
    for row, t in zip(work, trans):
        inv[row.bit_length() - 1] = t
    return GF2Matrix(a.rows, a.cols, tuple(inv))


def matrices(rows, cols):
    return st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows).map(
        lambda rs: GF2Matrix(rows, cols, tuple(rs))
    )


@st.composite
def nonsingular_matrices(draw, max_n=48):
    """A row permutation of the identity, then random row additions, which keep full rank."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.permutations([1 << i for i in range(n)]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4 * n)):
        if i != j:
            rows[i] ^= rows[j]
    return GF2Matrix(n, n, tuple(rows))


@st.composite
def rank_deficient_matrices(draw):
    """A nonsingular matrix with one row replaced by a sum of the others (rank n - 1)."""
    rows = list(draw(nonsingular_matrices()).row_bits)
    i = draw(st.integers(0, len(rows) - 1))
    others = draw(st.sets(st.sampled_from(range(len(rows))))) - {i}
    rows[i] = 0
    for j in others:
        rows[i] ^= rows[j]
    return GF2Matrix(len(rows), len(rows), tuple(rows))


SQUARE = st.one_of(
    st.integers(1, 48).flatmap(lambda n: matrices(n, n)),
    nonsingular_matrices(),
    rank_deficient_matrices(),
)


@given(SQUARE)
def test_invert_matches_the_reference(a):
    expected = reference_inverse(a)
    assert is_nonsingular(a) == (expected is not None)
    if expected is None:
        with pytest.raises(Singular):
            invert(a)
        return
    inv = invert(a)
    assert inv == expected
    assert mat_mul(inv, a) == GF2Matrix.identity(a.rows)
    assert mat_mul(a, inv) == GF2Matrix.identity(a.rows)


@given(nonsingular_matrices(), st.data())
def test_solve_inverts_mat_apply(a, data):
    b = BitVec(a.rows, data.draw(st.integers(0, (1 << a.rows) - 1)))
    assert mat_apply(a, solve(a, b)) == b


@given(st.lists(st.integers(1, 24), min_size=4, max_size=4), st.data())
def test_mat_mul_associates(dims, data):
    p, q, r, s = dims
    a, b, c = (data.draw(matrices(x, y)) for x, y in ((p, q), (q, r), (r, s)))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(st.lists(st.integers(1, 5), min_size=6, max_size=6), st.data())
def test_kron_mixed_product_law_on_any_shapes(dims, data):
    p, q, r, s, t, u = dims
    a, c = data.draw(matrices(p, q)), data.draw(matrices(q, r))
    b, d = data.draw(matrices(s, t)), data.draw(matrices(t, u))
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))
