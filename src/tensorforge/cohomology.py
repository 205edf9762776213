"""Cochain complex of an embedding tensor and its exact cohomology.

A valid tensor induces a ternary-Leibniz bracket on its source H and a
three-operator representation of that bracket on L. Degree-n cochains are
maps (wedge^2 H)^(n-1) x H -> L; a cochain's coordinates run over its pair
slots (lexicographic), then its final index, then the coordinate of its
value.

The differential out of degree n >= 1 is a signed sum of four small blocks,
each placed with the identity on the pair slots it leaves alone: D
substitutes the bracket of a new pair into the final slot, L acts on the
value by the left operator of a new pair, Omega substitutes the bracket of
a pair into a later pair slot, and F acts on the value by the middle and
right operators of the last pair. The blocks are built once per complex,
and each differential is one sparse `Matrix` summed from their placed
entries; the degree-0 differential comes from the term tables of the
tensor condition, and each is applied as one matrix-vector product. The
transport along a map of tensors is a Kronecker product, which `pushforward`
applies to one cochain factor by factor without forming it.

Before a differential is assembled, the blocks count its work: rows,
columns, the entries the placement writes and the runs of its slot loops.
A degree whose work estimate exceeds `_WORK_BUDGET` is refused rather than
left to grind.

The representation built here is checked by `algebras.check_3leibniz_rep`,
which needs none of this module.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb

from .actions import NetHomomorphism, _descendent_table, check_net
from .algebras import (
    EmbeddingTensorProblem,
    LinearMap,
    ThreeLeibnizAlgebra,
    ThreeLeibnizRep,
)
from .errors import _WORK_BUDGET, InputError, PreconditionError
from .linalg import Matrix, Vector, ZERO, _kron, _kron_apply, kernel_basis, rank
from .multilinear import (
    WedgePairBasis,
    _columns,
    _family,
    _feed,
    _from_columns,
    _relabel,
    _sparse_table,
    _substitute,
    _sum,
)


def induced_rep(p: EmbeddingTensorProblem) -> ThreeLeibnizRep:
    """The canonical representation of the descendent bracket on L.

    Refuses when the tensor condition fails. The L-bracket and the action
    are alternating, so the three families come from two term tables,
    B(i, j) e_c = [Ti, Tj, e_c] and A(i, j) e_c = T rho(Ti, e_c) e_j for T
    the tensor: l = B, r = B + A and m = -r.
    """
    check_net(p, mode="all").require(
        "the induced representation requires a valid embedding tensor"
    )
    return _induced_rep_unchecked(p)


def _induced_rep_unchecked(p: EmbeddingTensorProblem) -> ThreeLeibnizRep:
    """The families l(i, j) e_c = [Ti, Tj, e_c], m(i, j) e_c = [Ti, e_c, Tj]
    - T rho(Ti, e_c) e_j and r(i, j) e_c = [e_c, Ti, Tj] - T rho(e_c, Ti) e_j,
    from the tables B and A of `induced_rep`."""
    ldim, lam = p.l_space.dim, p.tensor_columns()
    B = _substitute(p.l_bracket.expand_ordered(), [lam, lam])  # keyed (i, j, c)
    # keyed (i, c, j)
    A = _feed(_family(lam), 0, _substitute(_columns(p.rho.expand_ordered()), [lam]))
    r = _from_columns(_sum([B, _relabel(A, lambda i, c, j: (i, j, c))]), ldim, ldim)
    m = {key: -op for key, op in r.items()}
    desc = ThreeLeibnizAlgebra(p.h_space, _descendent_table(p))
    return ThreeLeibnizRep(desc, p.l_space, _from_columns(B, ldim, ldim), m, r)


class Cochain:
    """A sparse degree-n cochain: keys are (pair-slot tuple, final H index)."""

    def __init__(
        self, degree: int, pair_dim: int, in_dim: int, out_dim: int, coords: dict
    ):
        if degree < 1:
            raise InputError("cochain degree must be at least 1")
        flat = _sparse_table(
            {tuple(pairs) + (last,): vec for (pairs, last), vec in coords.items()},
            "cochain",
            (pair_dim,) * (degree - 1) + (in_dim,),
            (out_dim,),
        )
        self.degree = degree
        self.pair_dim = pair_dim
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.coords = {(key[:-1], key[-1]): vec for key, vec in flat.items()}

    def is_zero(self) -> bool:
        return not self.coords

    def _dims(self) -> tuple:
        return (self.degree, self.pair_dim, self.in_dim, self.out_dim)

    def _combine(self, other: "Cochain", sign: int) -> "Cochain":
        if self._dims() != other._dims():
            raise InputError("cochain shape mismatch")
        theirs = {key: vec.scale(sign) for key, vec in other.coords.items()}
        return Cochain(
            self.degree, self.pair_dim, self.in_dim, self.out_dim,
            _sum([self.coords, theirs]),
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c) -> "Cochain":
        return Cochain(
            self.degree,
            self.pair_dim,
            self.in_dim,
            self.out_dim,
            {k: v.scale(c) for k, v in self.coords.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self._dims() == other._dims()
            and self.coords == other.coords
        )


def iter_cochain_keys(n: int, pair_dim: int, in_dim: int):
    """Canonical basis-key order: pair slots lexicographic, then final index."""
    for pairs in product(range(pair_dim), repeat=n - 1):
        for last in range(in_dim):
            yield pairs, last


def vec_cochain(phi: Cochain) -> Vector:
    """The coordinates of phi: pair slots lexicographic, then the final
    index, then the coordinate of the value."""
    entries = [ZERO] * (phi.pair_dim ** (phi.degree - 1) * phi.in_dim * phi.out_dim)
    for (pairs, last), val in phi.coords.items():
        pos = 0
        for q in pairs:
            pos = pos * phi.pair_dim + q
        pos = (pos * phi.in_dim + last) * phi.out_dim
        for t, a in val.iter_nonzero():
            entries[pos + t] = a
    return Vector(entries)


def unvec_cochain(
    n: int, pair_dim: int, in_dim: int, out_dim: int, v: Vector
) -> Cochain:
    expected = pair_dim ** (n - 1) * in_dim * out_dim
    if v.dim != expected:
        raise InputError(
            f"vector of dimension {v.dim} cannot be a degree-{n} cochain "
            f"(expected {expected})"
        )
    coords = {}
    pos = 0
    for key in iter_cochain_keys(n, pair_dim, in_dim):
        coords[key] = Vector(v.entries[pos : pos + out_dim])
        pos += out_dim
    return Cochain(n, pair_dim, in_dim, out_dim, coords)


def _shape(p: EmbeddingTensorProblem) -> tuple[int, int, int]:
    """(pair, source, value) dimensions of p's cochains."""
    return WedgePairBasis(p.h_space).dim, p.h_space.dim, p.l_space.dim


def _check_shape(phi: Cochain, shape: tuple[int, int, int]):
    got = (phi.pair_dim, phi.in_dim, phi.out_dim)
    if got != shape:
        raise InputError(
            f"cochain has (pair, source, value) dimensions {got}, expected {shape}"
        )


class CochainComplex:
    """All differentials of one embedding-tensor problem, built lazily."""

    def __init__(self, p: EmbeddingTensorProblem):
        check_net(p, mode="all").require(
            "the cochain complex requires a valid embedding tensor"
        )
        self.problem = p
        self.hspace = p.h_space
        self.lspace = p.l_space
        self.hdim = self.hspace.dim
        self.ldim = self.lspace.dim
        self.wedge = WedgePairBasis(self.hspace)
        self.lwedge = WedgePairBasis(self.lspace)
        self.pair_dim = self.wedge.dim
        self.rep = _induced_rep_unchecked(p)
        self.desc = self.rep.algebra.bracket
        self._blocks = self._build_blocks()
        self._matrices: dict[int, Matrix] = {}
        self._ranks: dict[int, int] = {}

    # -- basis bookkeeping ------------------------------------------------

    def cochain_dim(self, n: int) -> int:
        if n == 0:
            return self.lwedge.dim
        return self.pair_dim ** (n - 1) * self.hdim * self.ldim

    def vec(self, phi: Cochain) -> Vector:
        return vec_cochain(phi)

    def unvec(self, n: int, v: Vector) -> Cochain:
        return unvec_cochain(n, self.pair_dim, self.hdim, self.ldim, v)

    def cochain_from_linear_map(self, lm: LinearMap) -> Cochain:
        if lm.source.dim != self.hdim or lm.target.dim != self.ldim:
            raise InputError("expected a linear map from H to L")
        coords = {((), u): lm.column(u) for u in range(self.hdim)}
        return Cochain(1, self.pair_dim, self.hdim, self.ldim, coords)

    def linear_map_from_cochain(self, phi: Cochain) -> LinearMap:
        if phi.degree != 1:
            raise InputError("only degree-1 cochains are linear maps H -> L")
        cols = [
            phi.coords.get(((), u), self.lspace.zero())
            for u in range(self.hdim)
        ]
        return LinearMap(
            self.hspace, self.lspace, Matrix.from_cols(cols, nrows=self.ldim)
        )

    # -- the differential --------------------------------------------------

    def _build_blocks(self):
        """The nonzero entries of the blocks of the differential, with pairs
        given by their position q in the pair basis and d the descendent
        bracket. D (q, w, m) is coordinate m of d(q, e_w), L (q, t, c) entry
        (t, c) of the left operator l(q) and Omega (q, s, r) coordinate r of
        e_s1 ^ d(q, e_s2) + d(q, e_s1) ^ e_s2. F (q, w, m, t, c) is entry
        (t, c) of the middle operator m(q_u, w) when m = q_v and of the
        right operator r(q_v, w) when m = q_u; it is stored as (q, row,
        column, value), its row (w, t) and its column (m, c).
        """
        hdim, ldim, rep = self.hdim, self.ldim, self.rep
        position = self.wedge.position
        D = [
            (position(i, j), w, m, a)
            for (i, j, w), vec in self.desc.coords.items()
            if i < j
            for m, a in vec.iter_nonzero()
        ]
        L = [
            (position(i, j), t, c, a)
            for (i, j), op in rep.l_act.items()
            if i < j
            for (t, c), a in op.items()
        ]
        F = [
            (q, w * ldim + t, m * ldim + c, a)
            for q, (u, v) in enumerate(self.wedge.pairs)
            for w in range(hdim)
            for m, op in ((v, rep.m_act.get((u, w))), (u, rep.r_act.get((v, w))))
            if op is not None
            for (t, c), a in op.items()
        ]

        ordered = permutations(range(hdim), 2)
        signed = {(x, w): self.wedge.signed(x, w) for x, w in ordered}
        # the pair s = {x, w} gets sign_s * e_x ^ d(q, e_w) from D's entry
        omega = {}
        for q, w, m, a in D:
            for x in range(hdim):
                if x != w and x != m:
                    (s, sign_s), (r, sign_r) = signed[x, w], signed[x, m]
                    omega[q, s, r] = omega.get((q, s, r), ZERO) + sign_s * sign_r * a
        return D, L, F, [(q, s, r, a) for (q, s, r), a in omega.items() if a]

    def _work(self, n: int) -> int:
        """The work estimate of the differential out of degree n: its rows
        and columns, the n^2 runs of its slot loops and the entries its
        placement writes, n P^(n-1) (|D| ldim + |L| hdim) + P^(n-1) |F|
        + C(n, 2) P^(n-2) |Omega| hdim ldim for P pairs. When the slot loops
        alone exceed the budget they are the estimate, so that no P**n is
        formed for a huge n."""
        if n * n > _WORK_BUDGET:
            return n * n
        work = n * n + self.cochain_dim(n) + self.cochain_dim(n + 1)
        if n:
            D, L, F, omega = self._blocks
            P, hdim, ldim = self.pair_dim, self.hdim, self.ldim
            work += P ** (n - 1) * (n * (len(D) * ldim + len(L) * hdim) + len(F))
            work += comb(n, 2) * P ** max(n - 2, 0) * len(omega) * hdim * ldim
        return work

    def _assemble(self, n: int) -> Matrix:
        """The differential out of degree n >= 1: each block placed at every
        tuple of the pair slots it leaves alone, its entries summed per
        column."""
        D, L, F, omega = self._blocks
        P, hdim, ldim = self.pair_dim, self.hdim, self.ldim
        hl = hdim * ldim
        place = [hl]  # place[k]: the weight of a pair slot with k slots after it
        for _ in range(n):
            place.append(place[-1] * P)
        cols: dict[int, dict] = {}

        def put(runs, entries):
            """Add the (row, column, value) entries at every tuple of the
            slots left alone, given as runs (slots, weight of the run's
            last slot in the column, and in the row)."""
            if not entries:
                return
            offsets = [(0, 0)]
            for slots, col_w, row_w in runs:
                offsets = [
                    (i + g * col_w, o + g * row_w)
                    for i, o in offsets
                    for g in range(P**slots)
                ]
            for i0, o0 in offsets:
                for row, col, a in entries:
                    column = cols.setdefault(i0 + col, {})
                    column[o0 + row] = column.get(o0 + row, ZERO) + a

        for jj in range(n):
            # a new pair inserted at slot jj
            new, sign = place[n - 1 - jj], (-1) ** (jj + 1)
            head = (jj, new, place[n - jj])
            entries = [
                (q * new + w * ldim + c, m * ldim + c, sign * a)
                for q, w, m, a in D
                for c in range(ldim)
            ]
            entries += [
                (q * new + m * ldim + t, m * ldim + c, -sign * a)
                for q, t, c, a in L
                for m in range(hdim)
            ]
            put([head, (n - 1 - jj, hl, hl)], entries)
            for kk in range(jj + 1, n):
                # and the old pair r at slot kk - 1 replaced by s at slot kk
                sub, mid = place[n - 1 - kk], place[n - kk]
                entries = [
                    (q * new + s * sub + u, r * sub + u, sign * a)
                    for q, s, r, a in omega
                    for u in range(hl)
                ]
                put([head, (kk - 1 - jj, mid, mid), (n - 1 - kk, hl, hl)], entries)
        sign = (-1) ** (n + 1)
        put([(n - 1, hl, place[1])], [(q * hl + i, j, sign * a) for q, i, j, a in F])
        return Matrix.from_cols(
            [cols.get(j, {}) for j in range(self.cochain_dim(n))],
            nrows=self.cochain_dim(n + 1),
        )

    def _delta0(self) -> Matrix:
        """Column (a, b), a < b: u -> T rho(e_a, e_b) e_u - [e_a, e_b, T e_u]."""
        p, ldim = self.problem, self.ldim
        lam = p.tensor_columns()
        terms = [
            _feed(_family(lam), 0, _columns(p.rho.expand_ordered())),
            _relabel(  # [-T e_u, e_a, e_b] = -[e_a, e_b, T e_u]
                _substitute(p.l_bracket.expand_ordered(), [[-v for v in lam]]),
                lambda u, a, b: (a, b, u),
            ),
        ]
        cols = [{} for _ in self.lwedge.pairs]
        for (a, b, u), vec in _sum(terms, keep=lambda t: t[0] < t[1]).items():
            col = cols[self.lwedge.position(a, b)]
            col.update((u * ldim + t, x) for t, x in vec.iter_nonzero())
        return Matrix.from_cols(cols, nrows=self.cochain_dim(1))

    def delta0_cochain(self, a1: Vector, a2: Vector) -> Cochain:
        """Degree-1 coboundary of an algebra pair: u -> T(rho(a1,a2)u) - [a1,a2,Tu]."""
        if a1.dim != self.ldim or a2.dim != self.ldim:
            raise InputError("expected two vectors of the acting algebra")
        wedge = self.lwedge.wedge_expand(a1, a2)
        return self.unvec(1, self.delta_matrix(0).mul_vec(wedge))

    def apply_delta(self, phi: Cochain) -> Cochain:
        """The differential, degree n -> n + 1."""
        _check_shape(phi, (self.pair_dim, self.hdim, self.ldim))
        image = self.delta_matrix(phi.degree).mul_vec(vec_cochain(phi))
        return self.unvec(phi.degree + 1, image)

    def delta_matrix(self, n: int) -> Matrix:
        """Matrix of the differential out of degree n (degree 0 = pairs of L).

        Refuses a degree whose work estimate exceeds the budget.
        """
        if n < 0:
            raise InputError("differential degree must be nonnegative")
        if n not in self._matrices:
            work = self._work(n)
            if work > _WORK_BUDGET:
                raise PreconditionError(
                    f"degree {n} has a work estimate of {work}, over the "
                    f"budget of {_WORK_BUDGET}"
                )
            self._matrices[n] = self._assemble(n) if n else self._delta0()
        return self._matrices[n]

    def cohomology_dims(self, n: int) -> tuple[int, int, int]:
        """(dim cocycles, dim coboundaries, dim cohomology) in degree n >= 1."""
        if n < 1:
            raise InputError("cohomology is defined for degrees >= 1")
        r = self._rank(n)  # first, so that a refused degree is not counted
        z = self.cochain_dim(n) - r
        b = self._rank(n - 1)
        return z, b, z - b

    def _rank(self, n: int) -> int:
        # degree n's rank is both dim B^(n+1) and cochain dim - dim Z^n
        if n not in self._ranks:
            self._ranks[n] = rank(self.delta_matrix(n))
        return self._ranks[n]

    def kernel_cochains(self, n: int) -> list[Cochain]:
        return [
            self.unvec(n, v) for v in kernel_basis(self.delta_matrix(n))
        ]


# -- module-level operation entry points -----------------------------------


def _complex_of(p: EmbeddingTensorProblem) -> CochainComplex:
    """The cochain complex of p, built once per problem.

    Like the gate reports, it is memoized on the (immutable) problem, so
    its descendent table, induced representation, blocks and differentials
    are shared by every caller; callers must not mutate it.
    """
    if p._complex is None:
        object.__setattr__(p, "_complex", CochainComplex(p))
    return p._complex


def delta0(p: EmbeddingTensorProblem, a1: Vector, a2: Vector) -> Cochain:
    return _complex_of(p).delta0_cochain(a1, a2)


def delta_matrix(p: EmbeddingTensorProblem, n: int) -> Matrix:
    return _complex_of(p).delta_matrix(n)


def cohomology_dims(p: EmbeddingTensorProblem, n: int) -> tuple[int, int, int]:
    return _complex_of(p).cohomology_dims(n)


def pushforward(h: NetHomomorphism, phi: Cochain) -> Cochain:
    """Transport a cochain along an isomorphism-on-H map of tensor problems.

    Conjugates the pair slots and the final slot by the inverse of f_H and
    pushes values forward through f_L. Requires f_H invertible.
    """
    _check_shape(phi, _shape(h.source))
    image = _kron_apply(_transport_factors(h, phi.degree), vec_cochain(phi))
    return unvec_cochain(phi.degree, *_shape(h.target), image)


def pushforward_matrix(h: NetHomomorphism, n: int) -> Matrix:
    """Matrix of the cochain transport in degree n."""
    return _kron(*_transport_factors(h, n))


def _transport_factors(h: NetHomomorphism, n: int) -> list[Matrix]:
    """The Kronecker factors of the transport in degree n: X, ..., X,
    (f_H^-1)^T, f_L with n - 1 factors X, the pair transport, whose row q
    is the wedge of the columns q1 and q2 of f_H^-1 over the source pairs."""
    if n < 1:
        raise InputError("cochain transport is defined for degrees >= 1")
    fh_inv = h.f_h.inverse()
    if fh_inv is None:
        raise InputError("pushforward requires an invertible carrier map")
    source = WedgePairBasis(h.source.h_space)
    pairs = Matrix(
        [
            source.wedge_expand(fh_inv.column(a), fh_inv.column(b))
            for a, b in WedgePairBasis(h.target.h_space).pairs
        ],
        ncols=source.dim,
    )
    return [*[pairs] * (n - 1), fh_inv.matrix.transpose(), h.f_l.matrix]
