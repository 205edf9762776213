"""Cochain complex of an embedding tensor and its exact cohomology.

A valid tensor induces a ternary-Leibniz bracket on its source H and a
three-operator representation of that bracket on L. Degree-n cochains are
maps (wedge^2 H)^(n-1) x H -> L; the differential combines bracket
substitutions in the pair slots, a bracket substitution in the final slot,
and the three induced operators. The differential is applied sparsely to
each unit cochain, and the nonzero coordinates of the image, placed in the
basis order that `vec_cochain` uses, are one column of a sparse `Matrix`:
no dense cochain vector is built on the way to elimination.

Degrees are capped (default 3, env TENSORFORGE_DEGREE_CAP); asking beyond
the cap refuses rather than silently grinding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import product

from .actions import (
    EmbeddingTensorProblem,
    NetHomomorphism,
    _action_of,
    _bracket_of,
    _descendent_table,
    check_net,
)
from .algebras import LinearMap, ThreeLeibnizAlgebra, check_3leibniz
from .errors import InputError, PreconditionError
from .linalg import Matrix, Vector, ZERO, kernel_basis, rank
from .multilinear import (
    Space,
    WedgePairBasis,
    _basis,
    _compose,
    _family,
    _feed,
    _relabel,
    format_matrix,
)
from .report import Report, tuple_label

DEFAULT_DEGREE_CAP = 3


def _env_degree_cap() -> int:
    raw = os.environ.get("TENSORFORGE_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(
            f"TENSORFORGE_DEGREE_CAP must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise InputError("TENSORFORGE_DEGREE_CAP must be at least 1")
    return cap


class ThreeLeibnizRep:
    """Representation of a ternary Leibniz algebra by three operator families.

    l_act[(i, j)] is the operator of the pair (e_i, e_j) acting from the left;
    m_act[(i, j)] acts in the middle slot (u -> action of (e_i, u, e_j));
    r_act[(i, j)] acts from the right (u -> action of (u, e_i, e_j)).
    Keys are ordered pairs with no symmetry; absent keys are zero.
    """

    def __init__(
        self,
        algebra: ThreeLeibnizAlgebra,
        carrier: Space,
        l_act: dict,
        m_act: dict,
        r_act: dict,
    ):
        self.algebra = algebra
        self.carrier = carrier
        dim = algebra.space.dim
        vdim = carrier.dim

        def clean(table: dict, what: str) -> dict:
            out = {}
            for (i, j), mat in table.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise InputError(f"{what} key {(i + 1, j + 1)} out of range")
                if not isinstance(mat, Matrix):
                    mat = Matrix(mat)
                if (mat.nrows, mat.ncols) != (vdim, vdim):
                    raise InputError(
                        f"{what} operator at {(i + 1, j + 1)} is "
                        f"{mat.nrows}x{mat.ncols}, expected {vdim}x{vdim}"
                    )
                if not mat.is_zero():
                    out[(i, j)] = mat
            return out

        self.l_act = clean(l_act, "left action")
        self.m_act = clean(m_act, "middle action")
        self.r_act = clean(r_act, "right action")


def check_3leibniz_rep(r: ThreeLeibnizRep, title: str | None = None) -> Report:
    """Verify the five compatibility laws of the three operator families.

    Refuses when the underlying algebra fails its own fundamental identity.
    """
    rep = Report(title or "ternary Leibniz representation check")
    gate = check_3leibniz(r.algebra)
    if not gate.ok:
        rep.absorb(gate, "underlying algebra")
        return rep.refuse("underlying algebra fails the fundamental identity")

    space = r.algebra.space
    bracket = r.algebra.bracket.expand_ordered()
    l_act = r.l_act
    laws, expansions = [], []
    for name, act in (("left", l_act), ("middle", r.m_act), ("right", r.r_act)):
        # l(a1, a2) act(a3, a4) = act(a3, a4) l(a1, a2)
        #     + act([a1, a2, a3], a4) + act(a3, [a1, a2, a4])
        after_left = _compose(l_act, act)
        into_second = _feed(act, 1, bracket)  # keyed (a1, a2, a4, a3)
        laws.append(
            (
                f"left-{name} composition law",
                [after_left],
                [
                    _relabel(
                        _compose(act, l_act), lambda a3, a4, a1, a2: (a1, a2, a3, a4)
                    ),
                    _feed(act, 0, bracket),
                    _relabel(into_second, lambda a1, a2, a4, a3: (a1, a2, a3, a4)),
                ],
            )
        )
        if act is l_act:
            continue
        # act(a1, [a2, a3, a4]) = r(a3, a4) act(a1, a2)
        #     + m(a2, a4) act(a1, a3) + l(a2, a3) act(a1, a4)
        expansions.append(
            (
                f"{name} bracket-expansion law",
                [_relabel(into_second, lambda a2, a3, a4, a1: (a1, a2, a3, a4))],
                [
                    _relabel(
                        _compose(r.r_act, act), lambda a3, a4, a1, a2: (a1, a2, a3, a4)
                    ),
                    _relabel(
                        _compose(r.m_act, act), lambda a2, a4, a1, a3: (a1, a2, a3, a4)
                    ),
                    _relabel(after_left, lambda a2, a3, a1, a4: (a1, a2, a3, a4)),
                ],
            )
        )
    for name, lhs, rhs in laws + expansions:
        rep.law(
            name,
            "all ordered basis 4-tuples",
            space.dim**4,
            lhs,
            rhs,
            Matrix.zeros(r.carrier.dim, r.carrier.dim),
            format_matrix,
            partial(tuple_label, space),
        )
    return rep


def induced_rep(p: EmbeddingTensorProblem) -> ThreeLeibnizRep:
    """The canonical representation of the descendent bracket on L.

    Refuses when the tensor condition fails. The three families are built
    from the L-bracket and the action, with the tensor folded in.
    """
    gate = check_net(p, mode="all")
    if not gate.ok:
        raise PreconditionError(
            "the induced representation requires a valid embedding tensor", gate
        )
    return _induced_rep_unchecked(p)


def _induced_rep_unchecked(p: EmbeddingTensorProblem) -> ThreeLeibnizRep:
    """The three families, each operator's column c built from term tables:
    l(i, j) e_c = [Ti, Tj, e_c], m(i, j) e_c = [Ti, e_c, Tj] - T rho(Ti, e_c) e_j
    and r(i, j) e_c = [e_c, Ti, Tj] - T rho(e_c, Ti) e_j, for T the tensor."""
    lspace = p.l_space
    lam_cols = p.tensor_columns()
    basis = _basis(lspace)
    minus_lam = _family([-v for v in lam_cols])
    families = (
        [_bracket_of(p, lam_cols, lam_cols, basis)],  # keyed (i, j, c)
        [  # keyed (i, c, j)
            _bracket_of(p, lam_cols, basis, lam_cols),
            _feed(minus_lam, 0, _action_of(p, lam_cols, basis)),
        ],
        [  # keyed (c, i, j)
            _bracket_of(p, basis, lam_cols, lam_cols),
            _feed(minus_lam, 0, _action_of(p, basis, lam_cols)),
        ],
    )
    slots = ((0, 1, 2), (0, 2, 1), (1, 2, 0))  # where i, j and c sit in a key
    acts = []
    for tables, (si, sj, sc) in zip(families, slots):
        columns = {}
        for table in tables:
            for key, vec in table.items():
                col = columns.setdefault((key[si], key[sj]), {})
                c = key[sc]
                col[c] = col[c] + vec if c in col else vec
        acts.append(
            {
                pair: Matrix.from_cols(
                    [col.get(c, lspace.zero()) for c in range(lspace.dim)],
                    nrows=lspace.dim,
                )
                for pair, col in sorted(columns.items())
            }
        )
    desc = ThreeLeibnizAlgebra(p.h_space, _descendent_table(p))
    return ThreeLeibnizRep(desc, lspace, *acts)


@dataclass
class Cochain:
    """A sparse degree-n cochain: keys are (pair-slot tuple, final H index)."""

    degree: int
    pair_dim: int
    in_dim: int
    out_dim: int
    coords: dict

    def __post_init__(self):
        if self.degree < 1:
            raise InputError("cochain degree must be at least 1")
        clean = {}
        for (pairs, last), vec in self.coords.items():
            pairs = tuple(pairs)
            if len(pairs) != self.degree - 1:
                raise InputError(
                    f"cochain key has {len(pairs)} pair slots, "
                    f"expected {self.degree - 1}"
                )
            if not 0 <= last < self.in_dim or not all(
                0 <= q < self.pair_dim for q in pairs
            ):
                raise InputError(f"cochain key {(pairs, last)} is out of range")
            if not isinstance(vec, Vector):
                vec = Vector(vec)
            if vec.dim != self.out_dim:
                raise InputError("cochain value dimension mismatch")
            if not vec.is_zero():
                clean[(pairs, last)] = vec
        self.coords = clean

    def is_zero(self) -> bool:
        return not self.coords

    def _combine(self, other: "Cochain", sign: int) -> "Cochain":
        if (self.degree, self.pair_dim, self.in_dim, self.out_dim) != (
            other.degree,
            other.pair_dim,
            other.in_dim,
            other.out_dim,
        ):
            raise InputError("cochain shape mismatch")
        coords = dict(self.coords)
        for key, vec in other.coords.items():
            cur = coords.get(key)
            coords[key] = (
                vec.scale(sign) if cur is None else cur + vec.scale(sign)
            )
        return Cochain(
            self.degree, self.pair_dim, self.in_dim, self.out_dim, coords
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
            and self.degree == other.degree
            and self.coords == other.coords
        )


def iter_cochain_keys(n: int, pair_dim: int, in_dim: int):
    """Canonical basis-key order: pair slots lexicographic, then final index."""
    for pairs in product(range(pair_dim), repeat=n - 1):
        for last in range(in_dim):
            yield pairs, last


def _coordinates(phi: Cochain) -> dict:
    """The nonzero coordinates of phi, {position: value}, in the basis
    order of `iter_cochain_keys`: pair slots lexicographic, then the final
    index, then the coordinate of the value."""
    out = {}
    for (pairs, last), val in phi.coords.items():
        pos = 0
        for q in pairs:
            pos = pos * phi.pair_dim + q
        pos = (pos * phi.in_dim + last) * phi.out_dim
        for t, a in val.iter_nonzero():
            out[pos + t] = a
    return out


def vec_cochain(phi: Cochain) -> Vector:
    entries = [ZERO] * (phi.pair_dim ** (phi.degree - 1) * phi.in_dim * phi.out_dim)
    for pos, a in _coordinates(phi).items():
        entries[pos] = a
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


class CochainComplex:
    """All differentials of one embedding-tensor problem, built lazily."""

    def __init__(
        self, p: EmbeddingTensorProblem, degree_cap: int | None = None
    ):
        gate = check_net(p, mode="all")
        if not gate.ok:
            raise PreconditionError(
                "the cochain complex requires a valid embedding tensor", gate
            )
        self.problem = p
        self.degree_cap = _env_degree_cap() if degree_cap is None else degree_cap
        if self.degree_cap < 1:
            raise InputError("degree cap must be at least 1")
        self.hspace = p.h_space
        self.lspace = p.l_space
        self.hdim = self.hspace.dim
        self.ldim = self.lspace.dim
        self.wedge = WedgePairBasis(self.hspace)
        self.lwedge = WedgePairBasis(self.lspace)
        self.pair_dim = self.wedge.dim
        self.rep = _induced_rep_unchecked(p)
        self.desc = self.rep.algebra.bracket
        self._omega = self._build_omega()
        self._matrices: dict[int, Matrix] = {}
        self._ranks: dict[int, int] = {}

    # -- basis bookkeeping ------------------------------------------------

    def cochain_dim(self, n: int) -> int:
        if n == 0:
            return self.lwedge.dim
        return self.pair_dim ** (n - 1) * self.hdim * self.ldim

    def iter_keys(self, n: int):
        return iter_cochain_keys(n, self.pair_dim, self.hdim)

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

    def _build_omega(self):
        """Pair-substitution coefficients for the double-slot term.

        omega[q][s] expands e_{s1} ^ d(q, e_{s2}) + d(q, e_{s1}) ^ e_{s2}
        over the pair basis, where d is the descendent bracket of the pair q.
        """
        P = self.pair_dim
        omega = [[None] * P for _ in range(P)]
        for qpos, (qu, qv) in enumerate(self.wedge.pairs):
            for spos, (su, sv) in enumerate(self.wedge.pairs):
                acc = Vector.zero(P)
                dv = self.desc.value(qu, qv, sv)
                if dv is not None:
                    acc = acc + self.wedge.wedge_expand(
                        self.hspace.basis_vector(su), dv
                    )
                du = self.desc.value(qu, qv, su)
                if du is not None:
                    acc = acc + self.wedge.wedge_expand(
                        du, self.hspace.basis_vector(sv)
                    )
                omega[qpos][spos] = {
                    r: c for r, c in acc.iter_nonzero()
                }
        return omega

    def delta0_cochain(self, a1: Vector, a2: Vector) -> Cochain:
        """Degree-1 coboundary of an algebra pair: u -> T(rho(a1,a2)u) - [a1,a2,Tu]."""
        if a1.dim != self.ldim or a2.dim != self.ldim:
            raise InputError("expected two vectors of the acting algebra")
        p = self.problem
        coords = {}
        for u in range(self.hdim):
            e_u = self.hspace.basis_vector(u)
            vec = p.tensor.apply(p.rho.apply(a1, a2, e_u)) - p.l_bracket.eval(
                a1, a2, p.tensor.apply(e_u)
            )
            coords[((), u)] = vec
        return Cochain(1, self.pair_dim, self.hdim, self.ldim, coords)

    def apply_delta(self, phi: Cochain) -> Cochain:
        """The differential, degree n -> n + 1, assembled sparsely."""
        n = phi.degree
        if n > self.degree_cap:
            raise PreconditionError(
                f"degree {n} exceeds the degree cap {self.degree_cap}"
            )
        P = self.pair_dim
        hdim = self.hdim
        pairs_basis = self.wedge.pairs
        l_act = self.rep.l_act
        m_act = self.rep.m_act
        r_act = self.rep.r_act
        desc = self.desc
        out: dict = {}

        def add(key, vec):
            cur = out.get(key)
            out[key] = vec if cur is None else cur + vec

        sign4 = 1 if n % 2 == 1 else -1
        for (rpairs, m), val in phi.coords.items():
            # insert one free pair at position jj: final-slot substitution
            # (sign -1^(jj+1)) and the left operator (sign -1^(jj+2))
            for jj in range(n):
                sign2 = -1 if jj % 2 == 0 else 1
                for qpos in range(P):
                    qu, qv = pairs_basis[qpos]
                    newpairs = rpairs[:jj] + (qpos,) + rpairs[jj:]
                    for w in range(hdim):
                        dv = desc.value(qu, qv, w)
                        if dv is not None:
                            cm = dv[m]
                            if cm:
                                add((newpairs, w), val.scale(sign2 * cm))
                    lmat = l_act.get((qu, qv))
                    if lmat is not None:
                        contrib = lmat.mul_vec(val)
                        if not contrib.is_zero():
                            add((newpairs, m), contrib if sign2 < 0 else -contrib)
            # double-slot substitution: delete one pair slot, feed the
            # bracket of the deleted pair into a later slot
            for kk in range(1, n):
                rk = rpairs[kk - 1]
                rest = rpairs[: kk - 1] + rpairs[kk:]
                for jj in range(kk):
                    sign1 = -1 if jj % 2 == 0 else 1
                    for qpos in range(P):
                        row = self._omega[qpos]
                        for spos in range(P):
                            weight = row[spos].get(rk)
                            if weight:
                                q_tuple = rest[:jj] + (qpos,) + rest[jj : kk - 1]
                                q_tuple += (spos,) + rest[kk - 1 :]
                                add((q_tuple, m), val.scale(sign1 * weight))
            # final-pair term through the middle and right operators
            for qpos in range(P):
                qu, qv = pairs_basis[qpos]
                if qu != m and qv != m:
                    continue
                newpairs = rpairs + (qpos,)
                for w in range(hdim):
                    acc = None
                    if qv == m:
                        mm_ = m_act.get((qu, w))
                        if mm_ is not None:
                            acc = mm_.mul_vec(val)
                    if qu == m:
                        rm_ = r_act.get((qv, w))
                        if rm_ is not None:
                            rv = rm_.mul_vec(val)
                            acc = rv if acc is None else acc + rv
                    if acc is not None and not acc.is_zero():
                        add((newpairs, w), acc if sign4 > 0 else -acc)
        return Cochain(n + 1, P, hdim, self.ldim, out)

    def delta_matrix(self, n: int) -> Matrix:
        """Matrix of the differential out of degree n (degree 0 = pairs of L)."""
        if n < 0:
            raise InputError("differential degree must be nonnegative")
        if n > self.degree_cap:
            raise PreconditionError(
                f"degree {n} exceeds the degree cap {self.degree_cap}"
            )
        cached = self._matrices.get(n)
        if cached is not None:
            return cached
        if n == 0:
            images = (
                self.delta0_cochain(
                    self.lspace.basis_vector(a), self.lspace.basis_vector(b)
                )
                for a, b in self.lwedge.pairs
            )
        else:
            images = (
                self.apply_delta(
                    Cochain(
                        n,
                        self.pair_dim,
                        self.hdim,
                        self.ldim,
                        {key: self.lspace.basis_vector(c)},
                    )
                )
                for key in self.iter_keys(n)
                for c in range(self.ldim)
            )
        mat = Matrix.from_cols(
            map(_coordinates, images), nrows=self.cochain_dim(n + 1)
        )
        self._matrices[n] = mat
        return mat

    def cohomology_dims(self, n: int) -> tuple[int, int, int]:
        """(dim cocycles, dim coboundaries, dim cohomology) in degree n >= 1."""
        if n < 1:
            raise InputError("cohomology is defined for degrees >= 1")
        if n > self.degree_cap:
            raise PreconditionError(
                f"degree {n} exceeds the degree cap {self.degree_cap}"
            )
        z = self.cochain_dim(n) - self._rank(n)
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
    """The cochain complex of p, built once per problem and degree cap.

    Like the gate reports, it is memoized on the (immutable) problem, so
    its descendent table, induced representation and differentials are
    shared by every caller; callers must not mutate it.
    """
    key = os.environ.get("TENSORFORGE_DEGREE_CAP")
    if key not in p._complexes:
        p._complexes[key] = CochainComplex(p)
    return p._complexes[key]


def delta0(p: EmbeddingTensorProblem, a1: Vector, a2: Vector) -> Cochain:
    return _complex_of(p).delta0_cochain(a1, a2)


def delta(p: EmbeddingTensorProblem, phi: Cochain) -> Cochain:
    return _complex_of(p).apply_delta(phi)


def delta_matrix(p: EmbeddingTensorProblem, n: int) -> Matrix:
    return _complex_of(p).delta_matrix(n)


def cohomology_dims(p: EmbeddingTensorProblem, n: int) -> tuple[int, int, int]:
    return _complex_of(p).cohomology_dims(n)


def pushforward(h: NetHomomorphism, phi: Cochain) -> Cochain:
    """Transport a cochain along an isomorphism-on-H map of tensor problems.

    Conjugates the pair slots and the final slot by the inverse of f_H and
    pushes values forward through f_L. Requires f_H invertible.
    """
    fh_inv = h.f_h.inverse()
    if fh_inv is None:
        raise InputError("pushforward requires an invertible carrier map")
    target_wedge = WedgePairBasis(h.target.h_space)
    source_wedge = WedgePairBasis(h.source.h_space)
    P = target_wedge.dim
    hdim = h.source.h_space.dim
    ldim_out = h.target.l_space.dim

    # for each source pair index r: the target pairs q whose transported
    # wedge hits r, with coefficients
    by_source_pair: dict[int, list] = {}
    for q, (a, b) in enumerate(target_wedge.pairs):
        expanded = source_wedge.wedge_expand(fh_inv.column(a), fh_inv.column(b))
        for r, cval in expanded.iter_nonzero():
            by_source_pair.setdefault(r, []).append((q, cval))

    fm = fh_inv.matrix
    out: dict = {}

    def add(key, vec):
        cur = out.get(key)
        out[key] = vec if cur is None else cur + vec

    for (rpairs, m), val in phi.coords.items():
        pushed = h.f_l.apply(val)
        if pushed.is_zero():
            continue
        slot_opts = [by_source_pair.get(r, ()) for r in rpairs]
        if any(not opts for opts in slot_opts):
            continue
        w_opts = [
            (w, fm.at(m, w)) for w in range(hdim) if fm.at(m, w) != 0
        ]
        for combo in product(*slot_opts):
            coeff = None
            for _, cv in combo:
                coeff = cv if coeff is None else coeff * cv
            qtuple = tuple(q for q, _ in combo)
            for w, fw in w_opts:
                c = fw if coeff is None else coeff * fw
                add((qtuple, w), pushed.scale(c))
    return Cochain(phi.degree, P, hdim, ldim_out, out)


def pushforward_matrix(h: NetHomomorphism, n: int) -> Matrix:
    """Matrix of the cochain transport in degree n (same basis both sides)."""
    if n < 1:
        raise InputError("cochain transport is defined for degrees >= 1")
    src_wedge = WedgePairBasis(h.source.h_space)
    hdim = h.source.h_space.dim
    ldim = h.source.l_space.dim
    images = (
        pushforward(
            h, Cochain(n, src_wedge.dim, hdim, ldim, {key: Vector.unit(ldim, c)})
        )
        for key in iter_cochain_keys(n, src_wedge.dim, hdim)
        for c in range(ldim)
    )
    out_dim = (
        WedgePairBasis(h.target.h_space).dim ** (n - 1)
        * h.target.h_space.dim
        * h.target.l_space.dim
    )
    return Matrix.from_cols(map(_coordinates, images), nrows=out_dim)
