"""Every scalar is exact: an `int` where it is integral, a `Fraction`
otherwise, and never a float or a bool, from the parsed document through
each law's term tables to a built document.

Every command runs in process on every fixture, with `_sum` (which adds
the term tables of each law and of each builder) and the document reader
and writer wrapped to record what passes through them. Each scalar held by
a `Vector` or a `Matrix` among them must have type exactly `int` or
`Fraction`. So must each row entry the elimination kernel returns, where
the one division acts, and each value given to `linalg.rat` (which turns
every value a `Vector` is given that is not yet a scalar into one) other
than a string: `rat` rejects a float, so a float that reaches it is
recorded before the command fails on it.
"""

import contextlib
import io
from fractions import Fraction

import pytest

from tensorforge import (
    actions, algebras, cli, cohomology, deformations, induced_lie, linalg, report,
)
from tensorforge.linalg import Matrix, Vector

from test_cli_golden import FIXTURES, ROOT, commands

SUMMING = (actions, algebras, cohomology, deformations, induced_lie, report)


def _scalars(obj, seen):
    """The scalars of every Vector and Matrix reachable from obj through
    containers and the fields of package objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Vector):
        yield from obj.entries
    elif isinstance(obj, Matrix):
        yield from (a for _, a in obj.items())
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _scalars(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _scalars(value, seen)
    elif type(obj).__module__.startswith("tensorforge."):
        fields = [
            getattr(obj, name)
            for cls in type(obj).__mro__
            for name in getattr(cls, "__slots__", ())
            if hasattr(obj, name)
        ]
        yield from _scalars(fields + [getattr(obj, "__dict__", {})], seen)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_every_scalar_is_an_int_or_a_fraction(fixture, monkeypatch):
    monkeypatch.chdir(ROOT)
    held = []
    loose = []  # scalars outside a Vector or a Matrix

    def summing(original):
        def _sum(tables, keep=None):
            tables = [dict(table.items()) for table in tables]
            out = original(tables, keep)
            held.append([tables, out])
            return out

        return _sum

    def recorded(original):
        def wrapper(*args, **kwargs):
            value = original(*args, **kwargs)
            held.append([args, value])
            return value

        return wrapper

    def rat(value, original=linalg.rat):
        if not isinstance(value, str):
            loose.append(value)
        return original(value)

    def eliminate(sparse, ncols, reduce, original=linalg._eliminate):
        rows, pivots = original(sparse, ncols, reduce)
        loose.extend(a for row in rows for a in row.values())
        return rows, pivots

    for module in SUMMING:
        monkeypatch.setattr(module, "_sum", summing(module._sum))
    monkeypatch.setattr(cli, "load_document", recorded(cli.load_document))
    monkeypatch.setattr(cli, "emit_document", recorded(cli.emit_document))
    monkeypatch.setattr(linalg, "rat", rat)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    types = {}
    for argv in commands(fixture):
        if "--json" in argv:
            continue  # the same work as the text run
        held.clear()
        loose.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            cli.main(argv)
        for value in _scalars(held, set()):
            types.setdefault(type(value), argv)
        loose += [
            a for _, v in held if isinstance(v, cli.Document) for a in v.parameters.values()
        ]
        for value in loose:
            types.setdefault(type(value), argv)
    # every fixture holds integral scalars, but abelian.json's are all zero
    assert int in types or fixture == "abelian.json", "no scalar was reached"
    odd = {t.__name__: argv for t, argv in types.items() if t not in (int, Fraction)}
    assert not odd, f"scalars of other types, first seen in: {odd}"


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Matrix([[HALF]]).scale(2),
        lambda: Matrix([[HALF]]) + Matrix([[HALF]]),
        lambda: Matrix([[HALF]]).mul(Matrix([[2]])),
        lambda: linalg._kron(Matrix([[HALF]]), Matrix([[2]])),
        lambda: Matrix.from_cols([{0: Fraction(2, 2)}], nrows=1),
    ],
    ids=["scale", "sum", "product", "kronecker", "dict column"],
)
def test_matrix_entries_are_ints_where_integral(make):
    """Matrix arithmetic stores an integral result as an `int`, as `Vector`
    does: each of these matrices is [[1]]."""
    assert [(key, type(a)) for key, a in make().items()] == [((0, 0), int)]
