"""Exact linear algebra against the independent elimination oracle."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tensorforge import InputError, Matrix, Vector, fmt_rat, rat
from tensorforge.linalg import _rref, kernel_basis, rank, solve_membership

from oracles import oracle_kernel, oracle_rank, oracle_rref, oracle_solve

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


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
@example(TALL)
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
