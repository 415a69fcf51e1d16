import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setqm import gf2
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
    transpose,
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


@given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_derived_bitvec_equals_constructed(case):
    length, bits = case
    v = BitVec._derived(length, bits)
    assert v == BitVec(length, bits) and hash(v) == hash(BitVec(length, bits))
    assert v.indices() == BitVec(length, bits).indices()


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
    with pytest.raises(InvalidArgument, match="must be an int"):
        m.column(0.5)


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


def loop_mat_apply(a, v):
    """Reference matrix-vector product: one shift and OR per row into a growing int."""
    out = 0
    for i, row in enumerate(a.row_bits):
        out |= ((row & v.bits).bit_count() & 1) << i
    return BitVec(a.rows, out)


@given(st.integers(1, 300), st.integers(1, 300), st.data())
def test_mat_apply_matches_the_loop_on_any_shape(rows, cols, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    a = GF2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
    v = BitVec(cols, data.draw(st.sampled_from([0, (1 << cols) - 1, rng.getrandbits(cols)])))
    got, want = mat_apply(a, v), loop_mat_apply(a, v)
    assert got == want and hash(got) == hash(want)


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


# -- elimination at sizes the frames use, up to n = 300, against the same reference --
#
# From n = gf2._BLOCKED_FROM, `_reduce` eliminates in blocks of
# gf2._BLOCK_COLUMNS columns (Four-Russians). Sizes cover both sides of that
# cut and n that are not a multiple of the block width, a pivotless column
# is put at the first and last column of a block and inside it, and sparse
# matrices shaped like the frames workload's (few set bits per row, so a
# pivot search passes many rows) are checked beside dense ones.

GROUPS = (gf2._BLOCK_COLUMNS,)


def random_nonsingular(n, rng):
    """P*L*U with L, U random unitriangular and P a random row order: full rank by construction."""
    lower = GF2Matrix(n, n, tuple(1 << i | rng.getrandbits(i) for i in range(n)))
    upper = GF2Matrix(n, n, tuple(1 << i | rng.getrandbits(n - i - 1) << (i + 1) for i in range(n)))
    rows = list(mat_mul(lower, upper).row_bits)
    rng.shuffle(rows)
    return GF2Matrix(n, n, tuple(rows))


def sparse_nonsingular(n, rng):
    """The identity after 4n random row additions (four in five) and row swaps: full rank."""
    rows = [1 << i for i in range(n)]
    for _ in range(4 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] ^= rows[j]
    return GF2Matrix(n, n, tuple(rows))


def without_pivot_at(a, col, rng, among=None):
    """`a` with column `col` replaced by a random sum of the columns `among` marks (default: those below).

    The other columns of a nonsingular `a` stay independent, so an
    elimination that takes the marked columns first finds their pivots and
    then meets a pivotless column at `col`.
    """
    earlier = rng.getrandbits(col) if among is None else among & rng.getrandbits(a.cols)
    bit = 1 << col
    rows = tuple(r & ~bit | ((r & earlier).bit_count() & 1) << col for r in a.row_bits)
    return GF2Matrix(a.rows, a.cols, rows)


LARGE_SIZES = st.one_of(st.integers(1, 300), st.sampled_from([63, 64, 65, 127, 128, 256, 257]))


@settings(max_examples=30)
@given(LARGE_SIZES, st.integers(0, 2**32 - 1))
def test_invert_matches_the_reference_up_to_n_300(n, seed):
    a = random_nonsingular(n, random.Random(seed))
    assert is_nonsingular(a)
    assert invert(a) == reference_inverse(a)


@settings(max_examples=30)
@given(LARGE_SIZES, st.integers(0, 2**32 - 1))
def test_sparse_matrices_reduce_to_the_reference_rows_up_to_n_300(n, seed):
    a = sparse_nonsingular(n, random.Random(seed))
    expected = reference_inverse(a)
    assert gf2._reduce(a) == list(expected.row_bits)
    assert invert(a) == expected


@settings(max_examples=60)
@given(st.integers(1, 3 * gf2._BLOCKED_FROM), st.booleans(), st.integers(0, 2**32 - 1))
def test_block_and_column_passes_agree_on_either_side_of_the_cut(n, sparse, seed):
    rng = random.Random(seed)
    if sparse:
        a = sparse_nonsingular(n, rng)
    else:  # a random dense matrix is singular about seven times in ten
        a = GF2Matrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
    expected = reference_inverse(a)
    want = None if expected is None else list(expected.row_bits)
    assert gf2._block_pass(a.row_bits, n) == want
    assert gf2._column_pass(a.row_bits, n) == want


@settings(max_examples=30)
@given(LARGE_SIZES, st.integers(0, 2**32 - 1))
def test_random_matrices_match_the_reference_up_to_n_300(n, seed):
    rng = random.Random(seed)
    a = GF2Matrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
    expected = reference_inverse(a)
    assert is_nonsingular(a) == (expected is not None)
    if expected is not None:
        assert invert(a) == expected


@settings(max_examples=40)
@given(st.integers(gf2._BLOCKED_FROM, 300), st.sampled_from(GROUPS),
       st.sampled_from(["first", "inside", "last", "any"]),
       st.sampled_from([random_nonsingular, sparse_nonsingular]), st.integers(0, 2**32 - 1))
def test_a_pivotless_column_at_a_group_edge_or_inside_is_singular(n, width, where, base, seed):
    rng = random.Random(seed)
    start = rng.randrange(0, n, width)
    width = min(width, n - start)
    col = {"first": start, "inside": start + rng.randrange(width), "last": start + width - 1,
           "any": rng.randrange(n)}[where]
    a = without_pivot_at(base(n, rng), col, rng)
    assert reference_inverse(a) is None
    assert not is_nonsingular(a)
    with pytest.raises(Singular):
        invert(a)


# The block pass clears its highest block first, columns ascending inside
# it, so it meets a pivotless column there before any lower block is touched.
TOP_BLOCK_SIZES = st.one_of(st.sampled_from([63, 64, 65]),
                            st.integers(7, 300).filter(lambda n: n % gf2._BLOCK_COLUMNS))


@settings(max_examples=40)
@given(TOP_BLOCK_SIZES, st.sampled_from(["first", "inside", "last"]),
       st.sampled_from([random_nonsingular, sparse_nonsingular]), st.integers(0, 2**32 - 1))
def test_a_pivotless_column_in_the_top_block_is_singular(n, where, base, seed):
    rng = random.Random(seed)
    c0 = (n - 1) // gf2._BLOCK_COLUMNS * gf2._BLOCK_COLUMNS  # the top block is c0..n-1
    col = {"first": c0, "inside": rng.randrange(c0, n), "last": n - 1}[where]
    a = without_pivot_at(base(n, rng), col, rng, among=(1 << col) - (1 << c0))
    assert reference_inverse(a) is None
    assert gf2._block_pass(a.row_bits, n) is None
    assert gf2._column_pass(a.row_bits, n) is None
    assert not is_nonsingular(a)
    with pytest.raises(Singular):
        invert(a)


# The block pass finds a block's pivots in one scan: rows c0..top-1, then
# the rows below c0, each reduced by the pivots found so far. The block's
# own rows that become no pivot move into the places of pivots taken from
# below c0. These cases reach each of those paths on purpose.

SCAN_SIZES = st.one_of(st.integers(64, 80), st.just(256))


def assert_both_passes_invert(a):
    """Both passes give the reference inverse's rows, or None, and `invert` agrees."""
    expected = reference_inverse(a)
    want = None if expected is None else list(expected.row_bits)
    assert gf2._block_pass(a.row_bits, a.rows) == want
    assert gf2._column_pass(a.row_bits, a.rows) == want
    if expected is None:
        with pytest.raises(Singular):
            invert(a)
    else:
        assert invert(a) == expected


def full_block(n, rng, lowest=0):
    """The first column of a random block of _BLOCK_COLUMNS columns that fits in n, from `lowest` up."""
    return rng.randrange(lowest, n - gf2._BLOCK_COLUMNS + 1, gf2._BLOCK_COLUMNS)


@settings(max_examples=20)
@given(SCAN_SIZES, st.booleans(), st.integers(0, 2**32 - 1))
def test_permutations_take_pivots_from_below_the_block(n, anti, seed):
    # the anti-diagonal's top block has its pivots in rows 0..5 and none in its own rows
    order = list(reversed(range(n)))
    if not anti:
        random.Random(seed).shuffle(order)
    assert_both_passes_invert(GF2Matrix(n, n, tuple(1 << j for j in order)))


@settings(max_examples=20)
@given(SCAN_SIZES, st.integers(0, 2**32 - 1))
def test_a_candidate_with_block_bits_only_on_pivot_columns_is_reduced_away(n, seed):
    # row c0 pivots on c0; row c0 + 1 holds only c0 in the block, so reduction leaves
    # it without block bits, and column c0 + 1 takes its pivot from row x below c0
    rng = random.Random(seed)
    c0 = full_block(n, rng, lowest=gf2._BLOCK_COLUMNS)
    x = rng.randrange(c0)
    rows = [1 << i for i in range(n)]
    rows[c0 + 1] = 1 << c0 | 1 << x | rng.getrandbits(x)
    rows[x] = 1 << (c0 + 1) | rng.getrandbits(c0)
    assert_both_passes_invert(GF2Matrix(n, n, tuple(rows)))


@settings(max_examples=20)
@given(SCAN_SIZES, st.integers(0, 2**32 - 1))
def test_a_first_pivot_on_the_blocks_last_column(n, seed):
    rng = random.Random(seed)
    c0 = full_block(n, rng)
    last = c0 + gf2._BLOCK_COLUMNS - 1
    rows = [1 << i for i in range(n)]
    rows[c0], rows[last] = 1 << last | rng.getrandbits(c0), 1 << c0
    assert_both_passes_invert(GF2Matrix(n, n, tuple(rows)))


@settings(max_examples=30)
@given(SCAN_SIZES, st.integers(1, gf2._BLOCK_COLUMNS - 1),
       st.sampled_from([random_nonsingular, sparse_nonsingular]), st.integers(0, 2**32 - 1))
def test_rank_loss_found_mid_block_after_some_pivots_is_singular(n, taken, base, seed):
    # the block's columns past its first `taken` become sums of those, so the scan
    # takes `taken` pivots and then runs out of rows
    rng = random.Random(seed)
    c0 = full_block(n, rng)
    a = base(n, rng)
    for col in range(c0 + taken, c0 + gf2._BLOCK_COLUMNS):
        a = without_pivot_at(a, col, rng, among=(1 << (c0 + taken)) - (1 << c0))
    assert_both_passes_invert(a)


# -- transpose and row sums against per-bit references --


def per_bit_transpose(a):
    """Reference transpose: one shift and mask per entry."""
    return GF2Matrix(a.cols, a.rows, tuple(
        sum((row >> j & 1) << i for i, row in enumerate(a.row_bits)) for j in range(a.cols)))


# every side from 1 to 300, with the edges of the machine-word and power-of-two strides
EDGES = [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 256, 257, 300]
SIDES = st.one_of(st.integers(1, 300), st.sampled_from(EDGES))


def filled(rows, cols, fill, rng):
    """A rows x cols matrix of all-zero, all-one, sparse (about three set bits) or random rows."""
    full = (1 << cols) - 1
    row = {"zero": lambda: 0, "full": lambda: full, "random": lambda: rng.getrandbits(cols),
           "sparse": lambda: sum(1 << j for j in {rng.randrange(cols) for _ in range(3)})}[fill]
    return GF2Matrix(rows, cols, tuple(row() for _ in range(rows)))


FILLS = st.sampled_from(["zero", "full", "random", "sparse"])


@st.composite
def any_matrices(draw):
    """Any shape up to 300 x 300, square one time in three, filled as `filled` fills it."""
    rows = draw(SIDES)
    cols = rows if draw(st.integers(0, 2)) == 0 else draw(SIDES)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return filled(rows, cols, draw(FILLS), rng)


@settings(max_examples=60)
@given(any_matrices())
def test_transpose_matches_the_per_bit_reference_and_is_an_involution(a):
    t = transpose(a)
    want = per_bit_transpose(a)
    assert t == want and hash(t) == hash(want)
    assert (t.rows, t.cols) == (a.cols, a.rows)
    assert transpose(t) == a


@settings(max_examples=30)
@given(LARGE_SIZES, st.integers(0, 2**32 - 1))
def test_transpose_commutes_with_invert(n, seed):
    a = random_nonsingular(n, random.Random(seed))
    assert transpose(invert(a)) == invert(transpose(a))


@settings(max_examples=60)
@given(any_matrices(), st.data())
def test_row_sum_is_mat_apply_of_the_transpose(a, data):
    v = BitVec(a.rows, data.draw(st.integers(0, (1 << a.rows) - 1)))
    assert gf2._row_sum(a.row_bits, v.bits) == mat_apply(transpose(a), v).bits
    assert gf2._row_sum(a.row_bits, 0) == 0


@settings(max_examples=40)
@given(SIDES, st.integers(65, 300), FILLS, st.booleans(), st.integers(0, 2**32 - 1))
def test_transpose_of_rows_wider_than_a_machine_word_matches_to_lists(rows, cols, fill, flip, seed):
    a = filled(rows, cols, fill, random.Random(seed))
    if flip:  # the result's rows are the wide ones
        a = per_bit_transpose(a)
    assert transpose(a).to_lists() == [list(column) for column in zip(*a.to_lists())]


def test_transpose_examples():
    a = GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert transpose(a).to_lists() == [[1, 0], [1, 1], [0, 1]]
    assert transpose(GF2Matrix.identity(5)) == GF2Matrix.identity(5)
    assert transpose(DOUBLE_SLIT) == DOUBLE_SLIT  # symmetric


# -- products against the per-bit loops they replaced --


def reference_mat_mul(a, b):
    """Reference product: per row of `a`, one lowest-set-bit step per term, XORing rows of `b`."""
    out = []
    for row in a.row_bits:
        acc = 0
        rem = row
        while rem:
            j = (rem & -rem).bit_length() - 1
            acc ^= b.row_bits[j]
            rem &= rem - 1
        out.append(acc)
    return GF2Matrix(a.rows, b.cols, tuple(out))


def reference_kron(a, b):
    """Reference Kronecker product: row k of `b` shifted into each block row i of `a` names."""
    out = []
    for a_row in a.row_bits:
        for b_row in b.row_bits:
            bits = 0
            rem = a_row
            while rem:
                j = (rem & -rem).bit_length() - 1
                bits |= b_row << (j * b.cols)
                rem &= rem - 1
            out.append(bits)
    return GF2Matrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


@settings(max_examples=60)
@given(SIDES, SIDES, SIDES, FILLS, FILLS, st.integers(0, 2**32 - 1))
def test_mat_mul_matches_the_per_bit_loop_on_any_shape(r, m, c, fill_a, fill_b, seed):
    rng = random.Random(seed)
    a, b = filled(r, m, fill_a, rng), filled(m, c, fill_b, rng)
    got, want = mat_mul(a, b), reference_mat_mul(a, b)
    assert got == want and hash(got) == hash(want)


# factor sides up to 16, with 1-row and 1-column factors drawn often
KRON_SIDES = st.one_of(st.just(1), st.integers(1, 16), st.just(16))


@settings(max_examples=60)
@given(st.lists(KRON_SIDES, min_size=4, max_size=4), FILLS, FILLS, st.integers(0, 2**32 - 1))
def test_kron_matches_the_per_bit_loop(dims, fill_a, fill_b, seed):
    rng = random.Random(seed)
    p, q, r, s = dims
    a, b = filled(p, q, fill_a, rng), filled(r, s, fill_b, rng)
    got, want = kron(a, b), reference_kron(a, b)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=40)
@given(st.integers(1, 600), st.sampled_from(["identity", "sparse", "zero"]),
       KRON_SIDES, KRON_SIDES, FILLS, st.integers(0, 2**32 - 1))
def test_kron_with_a_wide_sparse_left_factor_matches_the_per_bit_loop(n, left, r, s, fill_b, seed):
    rng = random.Random(seed)
    a = GF2Matrix.identity(n) if left == "identity" else filled(n, n, left, rng)
    b = filled(r, s, fill_b, rng)
    assert kron(a, b) == reference_kron(a, b)


@given(st.integers(0, 2**300 - 1), st.integers(1, 300))
def test_spread_moves_bit_j_to_bit_j_times_the_stride(bits, stride):
    want = sum(1 << j * stride for j in range(bits.bit_length()) if bits >> j & 1)
    assert gf2._spread(bits, stride) == want


def reference_from_rows(rows):
    """The per-entry packing `from_rows` replaced: entry (i, j) is bit j of row i."""
    return GF2Matrix(len(rows), len(rows[0]),
                     tuple(sum(e << j for j, e in enumerate(row)) for row in rows))


@given(st.integers(1, 70).flatmap(
    lambda cols: st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                          min_size=1, max_size=20)))
def test_from_rows_matches_the_per_entry_packing(rows):
    assert GF2Matrix.from_rows(rows) == reference_from_rows(rows)


@pytest.mark.parametrize(
    "rows",
    [[[0, 2]], [[1, -1]], [[1.0, 0]], [["1", 0]], [[1, 0], [1]], [[1], [1, 0]], [], [[]]],
    ids=["entry-2", "entry-negative", "entry-float", "entry-str", "ragged-short",
         "ragged-long", "no-rows", "empty-row"],
)
def test_from_rows_rejects_bad_rows(rows):
    with pytest.raises(InvalidArgument):
        GF2Matrix.from_rows(rows)
