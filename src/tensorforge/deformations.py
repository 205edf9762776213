"""First-order deformations of an embedding tensor and their classification.

A direction is a linear map H -> L added to the tensor with a formal
parameter. First order in the parameter is exactly the degree-1 cocycle
condition; the module checks that directly on basis triples, cross-checks
against the differential matrix, decides equivalence of two directions by
exact membership in the image of the degree-zero differential, and
classifies directions modulo trivial ones.
"""

from __future__ import annotations

from functools import partial
from math import comb

from .actions import _action_of, _bracket_of, check_net
from .algebras import Deformation, EmbeddingTensorProblem, LinearMap, _increasing
from .cohomology import _complex_of
from .errors import InputError
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    _div,
    _rref,
    kernel_basis,
    solve_membership,
)
from .multilinear import (
    _columns,
    _family,
    _feed,
    _relabel,
    _sum,
    format_matrix,
    format_vector,
)
from .report import Report, tuple_label


class EquivalenceWitness:
    """A sum of wedges of L-vectors whose coboundary is the difference."""

    def __init__(self, pieces: list):
        self.pieces = pieces

    def describe(self, space) -> str:
        if not self.pieces:
            return "0"
        return " + ".join(
            f"({format_vector(space, a)}) ^ ({format_vector(space, b)})"
            for a, b in self.pieces
        )


def _same_problem(p1: EmbeddingTensorProblem, p2: EmbeddingTensorProblem) -> bool:
    return (
        p1.l_space == p2.l_space
        and p1.h_space == p2.h_space
        and p1.l_bracket.coords == p2.l_bracket.coords
        and p1.h_bracket.coords == p2.h_bracket.coords
        and p1.rho == p2.rho
        and p1.tensor.matrix == p2.tensor.matrix
    )


def check_infinitesimal(d: Deformation) -> Report:
    """Is the direction a first-order deformation of the tensor?

    Expands the deformed tensor condition to first order on every ordered
    basis triple, then cross-checks against the degree-1 differential.
    """
    rep = Report("first-order deformation check")
    gate = check_net(d.problem, mode="all")
    if not rep.gate(gate, "base tensor", "the undeformed tensor condition fails"):
        return rep

    p = d.problem
    hspace = p.h_space
    L = p.tensor_columns()
    M = [d.direction.column(i) for i in range(hspace.dim)]
    minus_l, minus_m = _family([-v for v in L]), _family([-v for v in M])
    # the degree-one part of the tensor condition, as one side
    line = rep.law(
        "first-order tensor condition",
        "all ordered basis triples",
        hspace.dim**3,
        [
            _bracket_of(p, M, L, L),
            _bracket_of(p, L, M, L),
            _bracket_of(p, L, L, M),
            _feed(minus_m, 0, _action_of(p, L, L)),
            _feed(minus_l, 0, _action_of(p, M, L)),
            _feed(minus_l, 0, _action_of(p, L, M)),
            _feed(minus_m, 0, p.h_bracket.expand_ordered()),
        ],
        [],
        p.l_space.zero(),
        partial(format_vector, p.l_space),
        partial(tuple_label, hspace),
    )

    complex_ = _complex_of(p)
    phi = complex_.cochain_from_linear_map(d.direction)
    cocycle = rep.line("cocycle condition", "degree-1 differential")
    cocycle.checked += 1
    image = complex_.apply_delta(phi)
    if not image.is_zero():
        vec = complex_.vec(image)
        cocycle.add_failure(
            (1,),
            "differential of the direction",
            format_vector_raw(vec),
            "0",
        )
    agree = line.passed == cocycle.passed
    rep.note(
        "direct expansion and the differential "
        + ("agree" if agree else "DISAGREE")
    )
    return rep


def format_vector_raw(v: Vector) -> str:
    parts = [f"[{i + 1}]={c}" for i, c in v.iter_nonzero()]
    return ", ".join(parts) if parts else "0"


def check_higher_order(d: Deformation) -> Report:
    """Second- and third-order conditions for the deformed tensor.

    Together with the first-order condition these make the deformed map an
    embedding tensor for every value of the parameter.
    """
    rep = Report("higher-order deformation check")
    gate = check_net(d.problem, mode="all")
    if not rep.gate(gate, "base tensor", "the undeformed tensor condition fails"):
        return rep

    p = d.problem
    hspace = p.h_space
    L = p.tensor_columns()
    M = [d.direction.column(i) for i in range(hspace.dim)]
    lam, lam1 = _family(L), _family(M)
    mm = _action_of(p, M, M)
    laws = (
        (
            "second-order condition",
            [_bracket_of(p, M, M, L), _bracket_of(p, M, L, M), _bracket_of(p, L, M, M)],
            [
                _feed(lam1, 0, _action_of(p, M, L)),
                _feed(lam1, 0, _action_of(p, L, M)),
                _feed(lam, 0, mm),
            ],
        ),
        ("third-order condition", [_bracket_of(p, M, M, M)], [_feed(lam1, 0, mm)]),
    )
    for name, lhs, rhs in laws:
        rep.law(
            name,
            "all ordered basis triples",
            hspace.dim**3,
            lhs,
            rhs,
            p.l_space.zero(),
            partial(format_vector, p.l_space),
            partial(tuple_label, hspace),
        )
    return rep


def _decompose_wedge(x_entries: list, dim: int) -> list:
    """Peel an antisymmetric coefficient matrix into decomposable wedges."""
    X = [row[:] for row in x_entries]
    pieces = []
    while True:
        pivot = None
        for i in range(dim):
            for j in range(i + 1, dim):
                if X[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return pieces
        i, j = pivot
        c = X[i][j]
        a1 = Vector([X[r][i] for r in range(dim)])
        a2 = Vector([_div(X[r][j], c) for r in range(dim)])
        pieces.append((a1, a2))
        for r in range(dim):
            for s in range(dim):
                X[r][s] -= a1[r] * a2[s] - a2[r] * a1[s]


def _is_bracket_derivation(rep: Report, name: str, bracket, images: dict) -> None:
    """Check the derivation law for an operator, given as its columns keyed
    (c,), against one bracket, as a line of rep."""
    space = bracket.domain
    ordered = bracket.expand_ordered()
    rep.law(
        name,
        "increasing basis triples",
        comb(space.dim, 3),
        [_feed(images, 0, bracket.coords)],
        [
            _feed(ordered, 0, images),
            _relabel(_feed(ordered, 1, images), lambda j, i, k: (i, j, k)),
            _relabel(_feed(ordered, 2, images), lambda k, i, j: (i, j, k)),
        ],
        space.zero(),
        partial(format_vector, space),
        partial(tuple_label, space),
        keep=_increasing,
    )


def are_equivalent(d1: Deformation, d2: Deformation):
    """Decide whether two first-order directions differ by a trivial one.

    Returns (equivalent, witness_or_None, report). Side conditions on the
    witness are reported as notes and never affect the verdict.
    """
    if not _same_problem(d1.problem, d2.problem):
        raise InputError("the two directions deform different problems")
    rep = Report("deformation equivalence check")
    for what, d in (("first direction", d1), ("second direction", d2)):
        if not rep.gate(check_infinitesimal(d), what, f"{what} is not first-order"):
            return False, None, rep

    p = d1.problem
    complex_ = _complex_of(p)
    diff_map = LinearMap(
        p.h_space, p.l_space, d1.direction.matrix - d2.direction.matrix
    )
    target = complex_.vec(complex_.cochain_from_linear_map(diff_map))
    line = rep.line("difference is a coboundary", "membership in the image")
    line.checked += 1
    solution = solve_membership(complex_.delta_matrix(0), target)
    if solution is None:
        line.add_failure(
            (1,),
            "difference of the directions",
            format_matrix(diff_map.matrix),
            "no wedge of L-vectors maps onto it",
        )
        return False, None, rep

    ldim = p.l_space.dim
    X = [[ZERO] * ldim for _ in range(ldim)]
    for pos, (a, b) in enumerate(complex_.lwedge.pairs):
        c = solution[pos]
        X[a][b] = X[a][b] + c
        X[b][a] = X[b][a] - c
    pieces = _decompose_wedge(X, ldim)
    witness = EquivalenceWitness(pieces)

    # re-derive the coboundary from the pieces and compare exactly
    verify = rep.line("witness reproduces the difference", "exact recomputation")
    verify.checked += 1
    acc = None
    for a1, a2 in pieces:
        term = complex_.delta0_cochain(a1, a2)
        acc = term if acc is None else acc + term
    rebuilt = (
        complex_.vec(acc)
        if acc is not None
        else Vector.zero(complex_.cochain_dim(1))
    )
    if rebuilt != target:
        verify.add_failure(
            (1,),
            "recomputed coboundary",
            format_vector_raw(rebuilt),
            format_vector_raw(target),
        )
        return False, None, rep

    rep.note(f"witness: {witness.describe(p.l_space)}")
    _witness_side_conditions(rep, p, pieces)
    return True, witness, rep


def _witness_side_conditions(rep: Report, p: EmbeddingTensorProblem, pieces):
    """Structural properties of the witness, reported as notes only."""
    ldim, hdim = p.l_space.dim, p.h_space.dim
    rho = _columns(p.rho.coords)  # rho(i, j) e_c on increasing pairs
    ops = _columns(p.rho.expand_ordered())
    # the columns of d_l, the sum of [a1, a2, -], and of d_h, the sum of
    # rho(a1, a2), keyed (c,)
    d_l, d_h = (
        _sum(_feed(_feed(table, 0, {(): a1}), 0, {(): a2}) for a1, a2 in pieces)
        for table in (p.l_bracket.expand_ordered(), ops)
    )

    side = Report("witness side conditions")
    _is_bracket_derivation(
        side, "derivation on the outer bracket", p.l_bracket, d_l
    )
    _is_bracket_derivation(
        side, "derivation on the carrier bracket", p.h_bracket, d_h
    )

    side.law(
        "action compatibility",
        "increasing basis pairs",
        comb(ldim, 2),
        [_feed(d_h, 0, rho)],
        [
            _feed(ops, 0, d_l),
            _relabel(_feed(ops, 1, d_l), lambda b, a, c: (a, b, c)),
            _relabel(_feed(rho, 2, d_h), lambda c, i, j: (i, j, c)),
        ],
        Matrix.zeros(hdim, hdim),
        format_matrix,
        partial(tuple_label, p.l_space),
        keep=_increasing,
    )
    for ln in side.checks:
        status = "holds" if ln.passed else "fails"
        detail = ""
        if not ln.passed:
            first = ln.failures[0]
            detail = f" (first at {first.where})"
        rep.note(f"witness side condition: {ln.name} {status}{detail}")


class Classification:
    """Exact dimensions and representatives for first-order directions."""

    def __init__(
        self,
        cocycle_dim: int,
        coboundary_dim: int,
        class_dim: int,
        cocycle_basis: list,
        coboundary_basis: list,
        representatives: list,
    ):
        self.cocycle_dim = cocycle_dim
        self.coboundary_dim = coboundary_dim
        self.class_dim = class_dim
        self.cocycle_basis = cocycle_basis
        self.coboundary_basis = coboundary_basis
        self.representatives = representatives


def classify(p: EmbeddingTensorProblem) -> Classification:
    """Split first-order directions into trivial ones and true classes.

    Cocycle basis spans all first-order directions, coboundary basis the
    trivial ones; representatives extend the trivial span to the full
    cocycle space, one per independent class.
    """
    complex_ = _complex_of(p)
    d1 = complex_.delta_matrix(1)
    d0 = complex_.delta_matrix(0)

    kernel = kernel_basis(d1)
    _, pivots = _rref(d0)
    image = [d0.col(j) for j in pivots]

    # the image columns are independent, so a kernel vector is a new class
    # exactly when its column is a pivot after them
    _, pivots = _rref(Matrix.from_cols(image + kernel, nrows=d0.nrows))
    chosen = [kernel[j - len(image)] for j in pivots if j >= len(image)]

    def to_map(vec: Vector) -> LinearMap:
        return complex_.linear_map_from_cochain(complex_.unvec(1, vec))

    return Classification(
        cocycle_dim=len(kernel),
        coboundary_dim=len(image),
        class_dim=len(kernel) - len(image),
        cocycle_basis=[to_map(v) for v in kernel],
        coboundary_basis=[to_map(v) for v in image],
        representatives=[to_map(v) for v in chosen],
    )
