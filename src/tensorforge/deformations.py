"""First-order deformations of an embedding tensor and their classification.

A direction is a linear map H -> L added to the tensor with a formal
parameter. First order in the parameter is exactly the degree-1 cocycle
condition; the module checks that directly on basis triples, cross-checks
against the differential matrix, decides equivalence of two directions by
exact membership in the image of the degree-zero differential, and
classifies directions modulo trivial ones.
"""

from __future__ import annotations

from .actions import _order, check_net
from .algebras import Deformation, EmbeddingTensorProblem, LinearMap
from .cohomology import _complex_of
from .errors import InputError
from .linalg import (
    Matrix,
    Vector,
    _div,
    _rref,
    fmt_rat,
    kernel_basis,
    solve_membership,
)
from .multilinear import (
    WedgePairBasis,
    _columns,
    _derivation,
    _feed,
    _relabel,
    _sum,
    format_matrix,
    format_vector,
)
from .report import Report, Scope


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


def check_infinitesimal(d: Deformation, higher_order: bool = False) -> Report:
    """Is the direction a first-order deformation of the tensor?

    Expands the deformed tensor condition to first order on every ordered
    basis triple, then cross-checks against the degree-1 differential. With
    `higher_order` the report also holds the lines of `check_higher_order`,
    under "higher order".
    """
    rep = Report("first-order deformation check")
    gate = check_net(d.problem, mode="all")
    if rep.gate(gate, "base tensor", "the undeformed tensor condition fails"):
        p = d.problem
        hspace = p.h_space
        M = [d.direction.column(i) for i in range(hspace.dim)]
        lhs, rhs = _order(p, M, 1)
        # the degree-one part of the tensor condition, as one side
        line = rep.law(
            "first-order tensor condition",
            Scope("all ordered basis triples", (None, hspace, 3, False)),
            lhs + [_relabel(term, lambda *t: t, -1) for term in rhs],
            [], p.l_space,
        )

        complex_ = _complex_of(p)
        cocycle = rep.line("cocycle condition", "degree-1 differential")
        cocycle.checked += 1
        direction = complex_.vec(complex_.cochain_from_linear_map(d.direction))
        image = complex_.delta_matrix(1).mul_vec(direction)
        if not image.is_zero():
            cocycle.add_failure(
                (1,), "differential of the direction", format_vector_raw(image), "0"
            )
        agree = "agree" if line.passed == cocycle.passed else "DISAGREE"
        rep.note(f"direct expansion and the differential {agree}")
    if higher_order:
        rep.absorb(check_higher_order(d), "higher order")
    return rep


def format_vector_raw(v: Vector) -> str:
    parts = [f"[{i + 1}]={fmt_rat(c)}" for i, c in v.iter_nonzero()]
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
    M = [d.direction.column(i) for i in range(hspace.dim)]
    for k, name in ((2, "second-order condition"), (3, "third-order condition")):
        rep.law(
            name, Scope("all ordered basis triples", (None, hspace, 3, False)),
            *_order(p, M, k), p.l_space,
        )
    return rep


def _decompose_wedge(w: Vector, basis: WedgePairBasis) -> list:
    """Peel a 2-vector into decomposable wedges a1 ^ a2: at the first
    nonzero pair (i, j), with coefficient c, a1 is column i and a2 column j
    over c of its antisymmetric matrix, and w loses a1 ^ a2."""
    pieces = []
    while True:
        first = next(w.iter_nonzero(), None)
        if first is None:
            return pieces
        pos, c = first
        i, j = basis.pairs[pos]
        a1 = basis.column(w, i)
        a2 = Vector([_div(x, c) for x in basis.column(w, j)])
        pieces.append((a1, a2))
        w = w - basis.wedge_expand(a1, a2)


def _is_bracket_derivation(rep: Report, name: str, bracket, images: dict) -> None:
    """Check the derivation law for an operator, given as its columns keyed
    (c,), against one bracket, as a line of rep."""
    space = bracket.domain
    rep.law(
        name, Scope("increasing basis triples", (None, space, 3, True)),
        *_derivation(images, 0, bracket, True), space,
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

    lwedge = complex_.lwedge
    pieces = _decompose_wedge(solution, lwedge)
    witness = EquivalenceWitness(pieces)

    # re-derive the coboundary from the pieces and compare exactly
    verify = rep.line("witness reproduces the difference", "exact recomputation")
    verify.checked += 1
    wedges = (lwedge.wedge_expand(a1, a2) for a1, a2 in pieces)
    rebuilt = complex_.delta_matrix(0).mul_vec(sum(wedges, Vector.zero(lwedge.dim)))
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
        Scope("increasing basis pairs", (None, p.l_space, 2, True)),
        [_feed(d_h, 0, rho)],
        [
            _feed(ops, 0, d_l),
            _relabel(_feed(ops, 1, d_l), lambda b, a, c: (a, b, c)),
            _relabel(_feed(rho, 2, d_h), lambda c, i, j: (i, j, c)),
        ],
        Matrix.zeros(p.h_space.dim, p.h_space.dim),
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
