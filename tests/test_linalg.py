"""Exact linear algebra against the independent elimination oracle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tensorforge import InputError, Matrix, Vector, fmt_rat, rat
from tensorforge.linalg import (
    _div,
    _kron,
    _kron_apply,
    _rref,
    kernel_basis,
    rank,
    solve_membership,
)

from oracles import (
    oracle_combine,
    oracle_kernel,
    oracle_matmul,
    oracle_matvec,
    oracle_rank,
    oracle_rref,
    oracle_solve,
    oracle_transpose,
)

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrix_rows(draw, max_dim=5):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return draw(
        st.lists(
            st.lists(fracs, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )


@settings(max_examples=50, deadline=None)
@given(matrix_rows())
def test_rank_matches_oracle(rows):
    assert rank(Matrix(rows)) == oracle_rank(rows)


@settings(max_examples=50, deadline=None)
@given(matrix_rows())
def test_kernel_basis_spans_the_null_space(rows):
    m = Matrix(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.ncols - rank(m)
    for v in basis:
        assert m.mul_vec(v).is_zero()
    if basis:
        assert rank(Matrix([list(v.entries) for v in basis])) == len(basis)
    oracle = oracle_kernel(rows, m.ncols)
    assert len(oracle) == len(basis)


@settings(max_examples=50, deadline=None)
@given(matrix_rows(), st.lists(fracs, min_size=1, max_size=5), st.booleans())
def test_solve_membership_matches_oracle(rows, coeffs, consistent):
    m = Matrix(rows)
    if consistent:
        x = Vector(tuple((coeffs * m.ncols)[: m.ncols]))
        target = m.mul_vec(x)
    else:
        target = Vector(tuple((coeffs * m.nrows)[: m.nrows]))
    got = solve_membership(m, target)
    oracle = oracle_solve(rows, list(target.entries))
    assert (got is None) == (oracle is None)
    if got is not None:
        assert m.mul_vec(got) == target


@st.composite
def sparse_rows(draw):
    """Mostly-zero rows with whole zero rows and columns and repeated rows."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for i, j in draw(st.sets(cells, max_size=nrows * ncols)):
        rows[i][j] = draw(fracs)
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[j] = Fraction(0)
    for src, dst, c in draw(
        st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, nrows - 1), fracs))
    ):
        rows[dst] = [c * x for x in rows[src]]
    return rows


TALL = [[Fraction(i * j % 5 - 2, 1 + i % 3) for j in range(4)] for i in range(12)]
# row denominators up to lcm(6, ..., 11) = 27720
HILBERT = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
# rank 2: rows 3 and 4 are combinations of rows 1 and 2
BIG = [[2**70 + 1, 2**70 - 3, 5, 2**69], [3, 2**70 + 7, 2**70, -1]]
BIG += [[a - b for a, b in zip(*BIG)], [a + 2 * b for a, b in zip(*BIG)]]


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
@example(TALL)
@example(HILBERT)
@example(BIG)
@example(TALL[:6] * 2)
@example([[Fraction(0)] * 4 for _ in range(12)])
@example([[Fraction(0), Fraction(1), Fraction(0)]] * 3 + [[Fraction(2), Fraction(0), Fraction(0)]])
def test_sparse_kernel_matches_oracle_rank_and_rref(rows):
    m = Matrix(rows)
    assert rank(m) == oracle_rank(rows)
    assert _rref(m) == oracle_rref(rows)


def test_rat_parses_ints_strings_and_fractions():
    assert rat(3) == Fraction(3)
    assert rat("3/6") == Fraction(1, 2)
    assert rat(" -4/6 ") == Fraction(-2, 3)
    assert rat(Fraction(7, 2)) == Fraction(7, 2)
    with pytest.raises(InputError):
        rat("seven")
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat(0.5)


def test_rat_is_an_int_exactly_when_the_value_is_integral():
    for value in (Fraction(4, 2), "6/3", 2, " 2 "):
        assert type(rat(value)) is int and rat(value) == 2
    assert type(rat(True)) is int
    assert type(rat("1/2")) is Fraction and rat("1/2") == Fraction(1, 2)
    assert type(rat(Fraction(6, 4))) is Fraction
    with pytest.raises(InputError):
        rat(2.0)
    assert type(_div(6, 3)) is int and _div(6, 3) == 2
    assert _div(1, 2) == Fraction(1, 2) and _div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(_div(Fraction(1, 2), Fraction(1, 4))) is int
    assert _div(-3, -6) == Fraction(1, 2)
    assert type(_div(4, -2)) is int and _div(4, -2) == -2
    # the kernels divide once, through `_div`, so their integral results are ints
    basis = kernel_basis(Matrix([[2, 4, 6], [1, 3, 5]]))
    assert [v.entries for v in basis] == [(1, -2, 1)]
    x = solve_membership(Matrix([[2, 0], [0, 2]]), Vector([2, 4]))
    assert x.entries == (1, 2)
    rows, pivots = _rref(Matrix([[Fraction(1, 2), 1, Fraction(3, 2)], [1, 3, 5]]))
    assert rows == [[1, 0, -1], [0, 1, 2]] and pivots == [0, 1]
    for value in (*basis[0], *x, *rows[0], *rows[1]):
        assert type(value) is int


def test_vector_arithmetic_keeps_integral_scalars_ints():
    half = Fraction(1, 2)
    for v in (
        Vector([half]) + Vector([half]),
        Vector([Fraction(3, 2)]) - Vector([half]),
        Vector([half]).scale(2),
        -Vector([Fraction(-2, 2)]),
        Vector([Fraction(4, 2), "6/3", True]),
    ):
        assert all(type(a) is int for a in v), v.entries
    assert (Vector([half]) + Vector([half])).entries == (1,)
    assert type(Vector([half]).scale(3)[0]) is Fraction


def test_fmt_rat_round_trips():
    assert fmt_rat(Fraction(1, 2)) == "1/2"
    assert fmt_rat(Fraction(-8, 4)) == "-2"
    assert fmt_rat(Fraction(0)) == "0"


def test_vector_and_matrix_shape_errors():
    with pytest.raises(InputError):
        Vector((1,)) + Vector((1, 2))
    with pytest.raises(InputError):
        Vector((1,)).dot(Vector((1, 2)))
    with pytest.raises(InputError):
        Matrix([[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix([[1, 2]], ncols=3)


def test_matrix_constructors_and_products():
    ident = Matrix.identity(3)
    diag = Matrix.diagonal([1, 2, 3])
    assert ident.mul(diag) == diag
    cols = [Vector((1, 0)), Vector((0, 1)), Vector((2, 3))]
    m = Matrix.from_cols(cols, nrows=2)
    assert m.ncols == 3 and m.col(2) == Vector((2, 3))
    assert m.transpose().transpose() == m
    assert Matrix.zeros(2, 3).is_zero()


def test_rank_of_known_matrices():
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert rank(Matrix([[Fraction(1, 2), 1], [1, 3]])) == 2



# mostly zeros, so that sums and products often cancel or vanish
sparse_fracs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fracs)
dims = st.integers(0, 4)


def _draw_rows(draw, nrows, ncols):
    return [[draw(sparse_fracs) for _ in range(ncols)] for _ in range(nrows)]


def _dense(rows):
    return tuple(tuple(row) for row in rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_arithmetic_matches_list_arithmetic(data):
    """Every Matrix operation against plain list-of-lists arithmetic, with
    0 x n and n x 0 shapes and mostly-zero entries."""
    m, k, n, w = (data.draw(dims) for _ in range(4))
    a = _draw_rows(data.draw, m, k)
    b = _draw_rows(data.draw, k, n)
    c = _draw_rows(data.draw, m, k)
    d = _draw_rows(data.draw, m, w)
    v = [data.draw(sparse_fracs) for _ in range(k)]
    s = data.draw(sparse_fracs)
    ma, mb, mc, md = (
        Matrix(rows, ncols=cols) for rows, cols in ((a, k), (b, n), (c, k), (d, w))
    )

    assert (ma.nrows, ma.ncols) == (m, k)
    assert ma.rows == _dense(a)
    assert Matrix(ma.rows, ncols=k) == ma
    assert ma.mul(mb).rows == _dense(oracle_matmul(a, b, n))
    assert (ma @ mb) == ma.mul(mb)
    assert ma.mul_vec(Vector(v)).entries == tuple(oracle_matvec(a, v))
    assert (ma + mc).rows == _dense(oracle_combine(a, c, 1))
    assert (ma - mc).rows == _dense(oracle_combine(a, c, -1))
    assert (-ma).rows == _dense([[-x for x in row] for row in a])
    assert ma.scale(s).rows == _dense([[s * x for x in row] for row in a])
    assert ma.transpose().rows == _dense(oracle_transpose(a, k))
    assert (ma.transpose().nrows, ma.transpose().ncols) == (k, m)
    assert ma.hstack(md).rows == _dense([r + q for r, q in zip(a, d)])
    assert ma.hstack(md).ncols == k + w
    for i in range(m):
        assert ma.row(i).entries == tuple(a[i])
        for j in range(k):
            assert ma.at(i, j) == a[i][j]
    for j in range(k):
        assert ma.col(j).entries == tuple(row[j] for row in a)
    assert ma.items() == [
        ((i, j), x) for i, row in enumerate(a) for j, x in enumerate(row) if x
    ]
    assert ma.is_zero() == all(x == 0 for row in a for x in row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cancelled_sums_and_products_are_the_zero_matrix(data):
    """A result whose entries cancel stores no zero: it equals, and hashes
    like, the zero matrix of its shape."""
    m, k = data.draw(dims), data.draw(dims)
    ma = Matrix(_draw_rows(data.draw, m, k), ncols=k)
    zero = Matrix.zeros(m, k)
    for cancelled in (ma - ma, ma + (-ma), ma.scale(0), ma.scale(2) - ma - ma):
        assert cancelled == zero and hash(cancelled) == hash(zero)
        assert cancelled.is_zero() and cancelled.items() == []
    # x @ y has the entries 1 * 1 + 1 * (-1) = 0
    x = Matrix([[1, 1]] * m, ncols=2)
    y = Matrix([[1] * k, [-1] * k], ncols=k)
    assert x.mul(y) == zero and hash(x.mul(y)) == hash(zero)
    assert ma.mul(Matrix.zeros(k, 3)) == Matrix.zeros(m, 3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_matrices_built_differently_are_equal_and_hash_alike(data):
    m, k = data.draw(dims), data.draw(dims)
    rows = _draw_rows(data.draw, m, k)
    built = [
        Matrix(rows, ncols=k),
        Matrix.from_cols([Vector(col) for col in oracle_transpose(rows, k)], nrows=m),
        Matrix.from_cols(
            [{i: row[j] for i, row in enumerate(rows)} for j in range(k)], nrows=m
        ),
        Matrix(oracle_transpose(rows, k), ncols=m).transpose(),
        Matrix(rows, ncols=k) + Matrix.zeros(m, k),
        Matrix.identity(m).mul(Matrix(rows, ncols=k)),
        Matrix.zeros(m, 0).hstack(Matrix(rows, ncols=k)),
    ]
    for other in built[1:]:
        assert other == built[0] and hash(other) == hash(built[0])
    assert Matrix.identity(m) == Matrix.diagonal([1] * m)
    assert hash(Matrix.identity(m)) == hash(Matrix.diagonal([1] * m))
    assert Matrix.zeros(m, k) == Matrix.diagonal([0] * m).mul(Matrix(rows, ncols=k))
    if m != k:
        assert Matrix.zeros(m, k) != Matrix.zeros(k, m)


@settings(max_examples=40, deadline=None)
@given(st.lists(matrix_rows(max_dim=3), min_size=1, max_size=4), st.data())
def test_kron_apply_equals_the_formed_product(factor_rows, data):
    """Applying the factors one mode at a time, last to first, on possibly
    non-square factors, gives the product of the formed Kronecker matrix."""
    factors = [Matrix(rows) for rows in factor_rows]
    size = 1
    for f in factors:
        size *= f.ncols
    v = Vector(data.draw(st.lists(fracs, min_size=size, max_size=size)))
    assert _kron_apply(factors, v) == _kron(*factors).mul_vec(v)

