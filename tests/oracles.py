"""Independent oracles and random instance generators for the test suite.

The elimination oracle is a deliberately separate implementation — partial
pivoting by largest absolute value, dense Gauss-Jordan over plain lists of
Fractions — so the package's sparse kernel (dict rows, column-order pivots
chosen by fewest nonzeros, then back substitution) is checked against code
that shares none of its pivoting choices or data structures.

The full-scan law references evaluate both sides of every law tuple by
tuple, on every tuple of its scope, and build the report the package
builds from its sparse term tables.

The generators build random structured instances from families whose
validity is provable, then conjugate by random invertible maps for
variety.  Each generator asserts the package checker accepts its output,
so a bad family fails loudly at generation time instead of poisoning a
downstream assertion.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations, product

from tensorforge import (
    AlternatingTrilinearTable,
    Cochain,
    CochainComplex,
    CoherentActionData,
    EmbeddingTensorProblem,
    LeibnizLieAlgebra,
    LieAlgebra,
    LieCoherentAction,
    LieNet,
    LinearMap,
    Matrix,
    PairAction,
    RepresentationData,
    Space,
    ThreeLieAlgebra,
    Report,
    ThreeLeibnizAlgebra,
    ThreeLeibnizRep,
    TraceMap,
    TrilinearTable,
    Vector,
    WedgePairBasis,
    check_coherent_action,
    check_leibniz_lie,
    check_lie,
    check_lie_coherent,
    check_lie_net,
    check_trace,
    hemisemidirect_table,
    kernel_basis,
    rank,
)
from tensorforge.cohomology import _complex_of
from tensorforge.deformations import format_vector_raw
from tensorforge.linalg import _rref
from tensorforge.multilinear import format_matrix, format_vector
from tensorforge.report import one_based, tuple_label

# ---------------------------------------------------------------------------
# elimination oracle


def oracle_rref(rows):
    """Reduced row echelon form with partial pivoting; returns (rows, pivots).

    `rows` is a list of lists of Fractions; the input is not mutated.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best, best_row = None, None
        for i in range(r, nrows):
            mag = abs(mat[i][c])
            if mag != 0 and (best is None or mag > best):
                best, best_row = mag, i
        if best_row is None:
            continue
        mat[r], mat[best_row] = mat[best_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def oracle_rank(rows) -> int:
    return len(oracle_rref(rows)[1])


def oracle_kernel(rows, ncols=None):
    """Basis of the right null space, one list of Fractions per vector."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    red, pivots = oracle_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def oracle_solve(rows, rhs):
    """One solution of rows * x = rhs, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return [Fraction(0)] * ncols if all(b == 0 for b in rhs) else None
    red, pivots = oracle_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


# ---------------------------------------------------------------------------
# matrix arithmetic oracle: dense lists of rows of Fractions, no sparsity


def oracle_matmul(a, b, ncols):
    """a @ b for a (m x k) and b (k x ncols), each a list of rows."""
    return [
        [
            sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0))
            for j in range(ncols)
        ]
        for row in a
    ]


def oracle_matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def oracle_combine(a, b, sign):
    """a + sign * b, entry by entry."""
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def oracle_transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


def oracle_class_representatives(p) -> list[Matrix]:
    """Matrices of the first-order class representatives, chosen greedily.

    The loop `classify` ran before it took the pivots of one elimination:
    walk the cocycle basis and keep each vector that raises the rank of the
    coboundary span plus the vectors already kept.
    """
    complex_ = CochainComplex(p)
    d1 = complex_.delta_matrix(1)
    d0 = complex_.delta_matrix(0)

    kernel = kernel_basis(d1)
    _, pivots = _rref(d0)
    image = [d0.col(j) for j in pivots]

    chosen = []
    base = list(image)
    current_rank = rank(Matrix.from_cols(base, nrows=d0.nrows)) if base else 0
    for v in kernel:
        trial = base + chosen + [v]
        r = rank(Matrix.from_cols(trial, nrows=d0.nrows))
        if r > current_rank + len(chosen):
            chosen.append(v)
    return [
        complex_.linear_map_from_cochain(complex_.unvec(1, v)).matrix
        for v in chosen
    ]


# ---------------------------------------------------------------------------
# random scalars, vectors, matrices

_SCALAR_POOL = [Fraction(n) for n in range(-2, 3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
]


def rand_scalar(rng, nonzero=False) -> Fraction:
    pool = [x for x in _SCALAR_POOL if x != 0] if nonzero else _SCALAR_POOL
    return rng.choice(pool)


def rand_vector(rng, dim) -> Vector:
    return Vector(tuple(rand_scalar(rng) for _ in range(dim)))


def rand_matrix(rng, nrows, ncols) -> Matrix:
    return Matrix([[rand_scalar(rng) for _ in range(ncols)] for _ in range(nrows)])


def rand_invertible(rng, dim) -> Matrix:
    while True:
        m = rand_matrix(rng, dim, dim)
        if oracle_rank([list(row) for row in m.rows]) == dim:
            return m


def rand_unimodular(rng, dim, shears=2) -> Matrix:
    """A sparse invertible integer matrix: permutation times a few shears.

    Keeps transported structure constants small and exact arithmetic cheap
    while still ranging over a generating set of the integer linear group.
    """
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[Fraction(1) if c == perm[r] else Fraction(0) for c in range(dim)]
            for r in range(dim)]
    m = Matrix(rows)
    for _ in range(shears):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        shear = [[Fraction(1) if r == c else Fraction(0) for c in range(dim)]
                 for r in range(dim)]
        shear[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
        m = m.mul(Matrix(shear))
    return m


def rand_diagonal(rng, dim) -> Matrix:
    return Matrix.diagonal([rand_scalar(rng) for _ in range(dim)])


# ---------------------------------------------------------------------------
# fixed building blocks

_FOUR = Space("H", 4, ("a1", "a2", "a3", "a4"))


def example_action() -> CoherentActionData:
    """The four-dimensional adjoint action used across the fixtures."""
    e4 = _FOUR.basis_vector(3)
    bracket = AlternatingTrilinearTable(_FOUR, _FOUR, {(0, 1, 2): e4})
    alg = ThreeLieAlgebra(_FOUR, bracket)

    def unit(r, c, sign=1):
        m = [[Fraction(0)] * 4 for _ in range(4)]
        m[r][c] = Fraction(sign)
        return Matrix(m)

    rho = PairAction(
        _FOUR, _FOUR,
        {(0, 1): unit(3, 2), (0, 2): unit(3, 1, -1), (1, 2): unit(3, 0)},
    )
    return CoherentActionData(RepresentationData(alg, _FOUR, rho), bracket)


def example_problem(k) -> EmbeddingTensorProblem:
    """The diagonal tensor diag(1, 1, 2k, k) over the adjoint action."""
    act = example_action()
    k = Fraction(k)
    tensor = LinearMap(_FOUR, _FOUR, Matrix.diagonal([1, 1, 2 * k, k]))
    return EmbeddingTensorProblem(act, tensor)


def abelian_action(rng, ldim=None, hdim=None) -> CoherentActionData:
    """Zero brackets and zero operators: coherent for any dimensions."""
    ldim = ldim or rng.randint(1, 4)
    hdim = hdim or rng.randint(1, 4)
    lsp = Space("L", ldim)
    hsp = Space("H", hdim)
    alg = ThreeLieAlgebra(lsp, AlternatingTrilinearTable(lsp, lsp, {}))
    rho = PairAction(lsp, hsp, {})
    hbr = AlternatingTrilinearTable(hsp, hsp, {})
    return CoherentActionData(RepresentationData(alg, hsp, rho), hbr)


# ---------------------------------------------------------------------------
# transport through invertible maps


def transport_problem(p: EmbeddingTensorProblem, gl: Matrix, gh: Matrix):
    """Conjugate every layer of a tensor problem by invertible matrices.

    Returns a new problem on the same spaces with brackets, operators, and
    tensor rewritten through gl (acting algebra side) and gh (carrier
    side).  The pair (gl, gh) is then a strict isomorphism of problems, so
    validity of the action and of the tensor condition is preserved and
    reflected.
    """
    lsp, hsp = p.l_space, p.h_space
    fl = LinearMap(lsp, lsp, gl)
    fh = LinearMap(hsp, hsp, gh)
    fl_inv, fh_inv = fl.inverse(), fh.inverse()
    if fl_inv is None or fh_inv is None:
        raise ValueError("transport needs invertible matrices")

    def conj_bracket(table, fwd, back):
        space = table.domain
        coords = {}
        for i, j, k in combinations(range(space.dim), 3):
            val = table.eval(back.column(i), back.column(j), back.column(k))
            coords[(i, j, k)] = fwd.apply(val)
        return AlternatingTrilinearTable(space, space, coords)

    lbr = conj_bracket(p.l_bracket, fl, fl_inv)
    hbr = conj_bracket(p.h_bracket, fh, fh_inv)

    wedge = WedgePairBasis(lsp)
    gh_m, gh_inv_m = fh.matrix, fh_inv.matrix
    rho_coords = {}
    for i, j in combinations(range(lsp.dim), 2):
        acc = Matrix.zeros(hsp.dim, hsp.dim)
        expanded = wedge.wedge_expand(fl_inv.column(i), fl_inv.column(j))
        for pos, c in expanded.iter_nonzero():
            a, b = wedge.pairs[pos]
            op = p.rho.at(a, b)
            if op is not None:
                acc = acc + op.scale(c)
        rho_coords[(i, j)] = gh_m.mul(acc).mul(gh_inv_m)
    rho = PairAction(lsp, hsp, rho_coords)

    tensor = LinearMap(hsp, lsp, gl.mul(p.tensor.matrix).mul(gh_inv_m))
    alg = ThreeLieAlgebra(lsp, lbr)
    return EmbeddingTensorProblem(
        CoherentActionData(RepresentationData(alg, hsp, rho), hbr), tensor
    )


# ---------------------------------------------------------------------------
# random tensor problems (valid coherent action, arbitrary tensor)


def random_problem(rng) -> EmbeddingTensorProblem:
    """A random tensor problem whose underlying action is always coherent.

    The tensor itself may or may not satisfy the embedding-tensor
    condition; consumers that compare two verdicts want both outcomes.
    """
    family = rng.randrange(5)
    if family == 0:
        act = example_action()
        tensor = LinearMap(_FOUR, _FOUR, rand_matrix(rng, 4, 4))
        p = EmbeddingTensorProblem(act, tensor)
    elif family == 1:
        act = example_action()
        tensor = LinearMap(_FOUR, _FOUR, rand_diagonal(rng, 4))
        p = EmbeddingTensorProblem(act, tensor)
    elif family == 2:
        p = example_problem(rand_scalar(rng))
    elif family == 3:
        act = abelian_action(rng)
        lsp, hsp = act.algebra.space, act.carrier
        tensor = LinearMap(hsp, lsp, rand_matrix(rng, lsp.dim, hsp.dim))
        p = EmbeddingTensorProblem(act, tensor)
    else:
        base = example_problem(rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)]))
        p = transport_problem(
            base, rand_unimodular(rng, 4), rand_unimodular(rng, 4)
        )
    assert check_coherent_action(p.action).ok
    return p


def random_valid_problem(rng) -> EmbeddingTensorProblem:
    """A random problem whose tensor does satisfy the condition."""
    family = rng.randrange(3)
    if family == 0:
        p = example_problem(rng.choice([Fraction(0), Fraction(1, 2)]))
    elif family == 1:
        act = abelian_action(rng)
        lsp, hsp = act.algebra.space, act.carrier
        tensor = LinearMap(hsp, lsp, rand_matrix(rng, lsp.dim, hsp.dim))
        p = EmbeddingTensorProblem(act, tensor)
    else:
        base = example_problem(rng.choice([Fraction(0), Fraction(1, 2)]))
        p = transport_problem(
            base, rand_unimodular(rng, 4), rand_unimodular(rng, 4)
        )
    return p


# ---------------------------------------------------------------------------
# random Lie-level instances

_HEIS3 = Space("L", 3)
_HEIS4 = Space("L", 4)


def _heisenberg(rng, dim) -> LieAlgebra:
    """[e1, e2] = c e3 on dim 3 or 4; center contains e3 (and e4)."""
    space = _HEIS3 if dim == 3 else _HEIS4
    c = rand_scalar(rng, nonzero=True)
    e3 = space.basis_vector(2)
    return LieAlgebra(space, {(0, 1): e3.scale(c)})


def _conjugate_lie(lie: LieAlgebra, g: Matrix) -> LieAlgebra:
    space = lie.space
    fwd = LinearMap(space, space, g)
    back = fwd.inverse()
    coords = {}
    for i, j in combinations(range(space.dim), 2):
        acc = Vector.zero(space.dim)
        bi, bj = back.column(i), back.column(j)
        for a, ca in bi.iter_nonzero():
            for b, cb in bj.iter_nonzero():
                val = lie.value(a, b)
                if val is not None:
                    acc = acc + val.scale(ca * cb)
        coords[(i, j)] = fwd.apply(acc)
    return LieAlgebra(space, coords)


def random_lie_with_trace(rng):
    """A random Lie algebra plus a functional vanishing on its brackets."""
    family = rng.randrange(3)
    if family == 0:
        dim = rng.randint(1, 4)
        space = Space("L", dim)
        lie = LieAlgebra(space, {})
        trace = TraceMap(space, rand_vector(rng, dim))
    else:
        lie = _heisenberg(rng, rng.choice([3, 4]))
        dim = lie.space.dim
        cov = [rand_scalar(rng) for _ in range(dim)]
        cov[2] = Fraction(0)
        lie_trace = TraceMap(lie.space, Vector(tuple(cov)))
        if family == 2:
            g = rand_invertible(rng, dim)
            ginv = LinearMap(lie.space, lie.space, g).inverse()
            lie = _conjugate_lie(lie, g)
            moved = ginv.matrix.transpose().mul_vec(lie_trace.covector)
            lie_trace = TraceMap(lie.space, moved)
        trace = lie_trace
    assert check_lie(lie).ok and check_trace(trace, lie).ok
    return lie, trace


def random_lie_action(rng) -> LieCoherentAction:
    """A random coherent Lie action: zero operators, or commuting ones
    acting on an abelian carrier."""
    family = rng.randrange(2)
    if family == 0:
        lie, _ = random_lie_with_trace(rng)
        carrier, _ = random_lie_with_trace(rng)
        act = LieCoherentAction(lie, carrier, {})
    else:
        ldim, hdim = rng.randint(1, 4), rng.randint(1, 4)
        lsp, hsp = Space("L", ldim), Space("H", hdim)
        lie = LieAlgebra(lsp, {})
        carrier = LieAlgebra(hsp, {})
        n = rand_matrix(rng, hdim, hdim)
        rho = {
            (i,): n.scale(rand_scalar(rng))
            for i in range(ldim)
            if rng.random() < 0.8
        }
        act = LieCoherentAction(lie, carrier, rho)
    assert check_lie_coherent(act).ok
    return act


def random_lie_net(rng):
    """A valid Lie-level tensor with compatible traces on both sides.

    Returns (net, trace_on_l, trace_on_h) satisfying every gate of the
    ternary lift: the Lie tensor condition, both vanishing conditions, and
    trace compatibility through the tensor.
    """
    family = rng.randrange(4)
    if family == 0:
        # image of the tensor inside the center, abelian carrier
        lie = _heisenberg(rng, rng.choice([3, 4]))
        ldim = lie.space.dim
        hdim = rng.randint(1, 4)
        hsp = Space("H", hdim)
        carrier = LieAlgebra(hsp, {})
        act = LieCoherentAction(lie, carrier, {})
        cols = []
        for _ in range(hdim):
            col = [Fraction(0)] * ldim
            col[2] = rand_scalar(rng)
            if ldim == 4:
                col[3] = rand_scalar(rng)
            cols.append(Vector(tuple(col)))
        tensor = LinearMap(hsp, lie.space, Matrix.from_cols(cols, nrows=ldim))
        cov = [rand_scalar(rng) for _ in range(ldim)]
        cov[2] = Fraction(0)
        sigma_l = TraceMap(lie.space, Vector(tuple(cov)))
    elif family == 1:
        # identity tensor on a shared algebra, zero operators
        lie, sigma_l = random_lie_with_trace(rng)
        act = LieCoherentAction(lie, lie, {})
        tensor = LinearMap.identity(lie.space)
    elif family == 2:
        # zero tensor over an arbitrary coherent action
        act = random_lie_action(rng)
        lsp, hsp = act.lie.space, act.carrier.space
        tensor = LinearMap(hsp, lsp, Matrix.zeros(lsp.dim, hsp.dim))
        _, sigma_l = random_lie_with_trace(rng)
        if sigma_l.space.dim != lsp.dim or not check_trace(sigma_l, act.lie).ok:
            sigma_l = TraceMap(lsp, Vector.zero(lsp.dim))
    else:
        # commuting operators whose image the tensor kills
        ldim, hdim = rng.randint(2, 4), rng.randint(2, 4)
        lsp, hsp = Space("L", ldim), Space("H", hdim)
        lie = LieAlgebra(lsp, {})
        carrier = LieAlgebra(hsp, {})
        tensor_m = rand_matrix(rng, ldim, hdim)
        kern = oracle_kernel([list(r) for r in tensor_m.rows], hdim)
        if kern:
            u = Vector(tuple(rng.choice(kern)))
            v = rand_vector(rng, hdim)
            n = Matrix(
                [[u.entries[r] * v.entries[c] for c in range(hdim)]
                 for r in range(hdim)]
            )
        else:
            n = Matrix.zeros(hdim, hdim)
        rho = {(i,): n.scale(rand_scalar(rng)) for i in range(ldim)}
        act = LieCoherentAction(lie, carrier, rho)
        tensor = LinearMap(hsp, lsp, tensor_m)
        sigma_l = TraceMap(lsp, rand_vector(rng, ldim))
    net = LieNet(act, tensor)
    sigma_h = TraceMap(
        net.action.carrier.space,
        tensor.matrix.transpose().mul_vec(sigma_l.covector),
    )
    assert check_lie_net(net).ok
    assert check_trace(sigma_l, net.action.lie).ok
    assert check_trace(sigma_h, net.action.carrier).ok
    return net, sigma_l, sigma_h


def random_leibniz_lie_with_trace(rng):
    """A random Leibniz-Lie algebra plus a functional vanishing on both
    operations: zero products over a random Lie algebra, or a rank-one
    product built from a functional and a compatible square matrix."""
    family = rng.randrange(3)
    if family == 0:
        lie, trace = random_lie_with_trace(rng)
        alg = LeibnizLieAlgebra(lie, {})
    elif family == 1:
        # abelian bracket, product x > y = s'(x) N y with s' N = 0
        dim = rng.randint(2, 4)
        space = Space("V", dim)
        lie = LieAlgebra(space, {})
        sprime = rand_vector(rng, dim)
        kern = oracle_kernel([list(sprime.entries)], dim)
        u = Vector(tuple(rng.choice(kern))) if kern else Vector.zero(dim)
        v = rand_vector(rng, dim)
        coords = {}
        for i in range(dim):
            for j in range(dim):
                coords[(i, j)] = u.scale(sprime.entries[i] * v.entries[j])
        alg = LeibnizLieAlgebra(lie, coords)
        trace = TraceMap(space, sprime)
    else:
        # Heisenberg bracket; products land in the center and kill it
        lie = _heisenberg(rng, 3)
        space = lie.space
        e3 = space.basis_vector(2)
        sprime = Vector((rand_scalar(rng), rand_scalar(rng), Fraction(0)))
        v = Vector((rand_scalar(rng), rand_scalar(rng), Fraction(0)))
        coords = {}
        for i in range(3):
            for j in range(3):
                coords[(i, j)] = e3.scale(sprime.entries[i] * v.entries[j])
        alg = LeibnizLieAlgebra(lie, coords)
        trace = TraceMap(space, sprime)
    assert check_leibniz_lie(alg).ok
    assert check_trace(trace, alg).ok
    return alg, trace


# ---------------------------------------------------------------------------
# builder references: the loops the builders ran before each became a sum
# of term tables, dense over every basis tuple, kept to check those sums


def ref_feed(outer: dict, slot: int, inner: dict) -> dict:
    """`multilinear._feed` as it was before it summed vector values in
    coordinate lists: each term is a whole value, scaled and added."""
    index = {}
    for key, val in outer.items():
        index.setdefault(key[slot], []).append((key[:slot] + key[slot + 1 :], val))
    out = {}
    for a, vec in inner.items():
        terms = {}
        for m, c in vec.iter_nonzero():
            for rest, val in index.get(m, ()):
                term = val if c == 1 else val.scale(c)
                terms[rest] = terms[rest] + term if rest in terms else term
        out.update((a + rest, val) for rest, val in terms.items() if not val.is_zero())
    return out


def ref_trilinear_eval(coords: dict, zero, x, y, z):
    """A general trilinear table on vectors: each stored value times
    x_i y_j z_k, the loop `TrilinearTable.eval` ran before every stored
    map shared one evaluator."""
    acc = zero
    for (i, j, k), val in coords.items():
        c = x[i] * y[j] * z[k]
        if c:
            acc = acc + val.scale(c)
    return acc


def ref_minor_eval(coords: dict, zero, *vectors):
    """An alternating map stored on increasing keys, on two or three
    vectors: each stored value times the 2x2 or 3x3 minor of the vectors'
    coordinates at its key, the loops the Lie bracket, the pair action and
    the alternating trilinear table ran before they shared one."""
    acc = zero
    for key, val in coords.items():
        if len(key) == 2:
            (i, j), (x, y) = key, vectors
            c = x[i] * y[j] - x[j] * y[i]
        else:
            (i, j, k), (x, y, z) = key, vectors
            c = (
                x[i] * (y[j] * z[k] - y[k] * z[j])
                - x[j] * (y[i] * z[k] - y[k] * z[i])
                + x[k] * (y[i] * z[j] - y[j] * z[i])
            )
        if c:
            acc = acc + val.scale(c)
    return acc


def ref_ternary_from_binary(lie, t) -> AlternatingTrilinearTable:
    """t(e_i) [e_j, e_k] + t(e_j) [e_k, e_i] + t(e_k) [e_i, e_j]."""
    space = lie.space
    coords = {}
    for i, j, k in combinations(range(space.dim), 3):
        acc = space.zero()
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            val = lie.value(b, c)
            if val is not None and t.at(a) != 0:
                acc = acc + val.scale(t.at(a))
        if not acc.is_zero():
            coords[(i, j, k)] = acc
    return AlternatingTrilinearTable(space, space, coords)


def ref_three_ll_braces(g, t) -> TrilinearTable:
    """The lifted braces t(e_i) e_j > e_k - t(e_j) e_i > e_k."""
    space = g.lie.space
    braces = {}
    for i, j, k in product(range(space.dim), repeat=3):
        acc = space.zero()
        pjk = g.product(j, k)
        if pjk is not None and t.at(i) != 0:
            acc = acc + pjk.scale(t.at(i))
        pik = g.product(i, k)
        if pik is not None and t.at(j) != 0:
            acc = acc - pik.scale(t.at(j))
        if not acc.is_zero():
            braces[(i, j, k)] = acc
    return TrilinearTable(space, space, braces)


def ref_rho_sigma(a, t) -> PairAction:
    """t(e_i) rho(e_j) - t(e_j) rho(e_i) on every increasing pair."""
    coords = {
        (i, j): a.operator(j).scale(t.at(i)) - a.operator(i).scale(t.at(j))
        for i, j in combinations(range(a.lie.space.dim), 2)
    }
    return PairAction(a.lie.space, a.carrier.space, coords)


def ref_hemisemidirect_table(c) -> ThreeLeibnizAlgebra:
    """[l1+h1, l2+h2, l3+h3] = [l1,l2,l3]_L + rho(l1,l2)h3 + [h1,h2,h3]_H,
    each value padded into L + H by hand."""
    lspace, hspace = c.algebra.space, c.carrier
    ldim, hdim = lspace.dim, hspace.dim
    labels = tuple(f"l_{s}" for s in lspace.basis_labels) + tuple(
        f"h_{s}" for s in hspace.basis_labels
    )
    total = Space(f"{lspace.name}(+){hspace.name}", ldim + hdim, labels)

    def embed_l(v):
        return Vector(v.entries + (0,) * hdim)

    def embed_h(v):
        return Vector((0,) * ldim + v.entries)

    coords = {}
    for key, vec in c.algebra.bracket.expand_ordered().items():
        coords[key] = embed_l(vec)
    for (i, j), mat in c.rho.items():
        for k in range(hdim):
            coords[(i, j, ldim + k)] = embed_h(mat.col(k))
            coords[(j, i, ldim + k)] = embed_h(-mat.col(k))
    for (i, j, k), vec in c.target_bracket.expand_ordered().items():
        coords[(ldim + i, ldim + j, ldim + k)] = embed_h(vec)
    return ThreeLeibnizAlgebra(total, TrilinearTable(total, total, coords))


def ref_subadjacent(a) -> ThreeLeibnizAlgebra:
    """The entry-wise sum of bracket and braces, key by key."""
    space = a.space
    bracket_vals = a.lie3.bracket.expand_ordered()
    brace_vals = a.braces.expand_ordered()
    coords = {}
    for key in sorted(set(bracket_vals) | set(brace_vals)):
        total = bracket_vals.get(key, space.zero()) + brace_vals.get(key, space.zero())
        if not total.is_zero():
            coords[key] = total
    return ThreeLeibnizAlgebra(space, TrilinearTable(space, space, coords))


# ---------------------------------------------------------------------------
# cochain map references: each map applied to one cochain at a time by
# loops over its slots, pairs and indices, and its matrix built column by
# column from the images of the unit cochains


def _ref_coordinates(phi) -> dict:
    """The nonzero coordinates of phi, {position: value}: pair slots
    lexicographic, then the final index, then the coordinate of the value."""
    out = {}
    for (pairs, last), val in phi.coords.items():
        pos = 0
        for q in pairs:
            pos = pos * phi.pair_dim + q
        pos = (pos * phi.in_dim + last) * phi.out_dim
        for t, a in val.iter_nonzero():
            out[pos + t] = a
    return out


def _ref_units(n, pair_dim, in_dim, out_dim):
    """The unit cochains of degree n, in basis order."""
    for pairs in product(range(pair_dim), repeat=n - 1):
        for last in range(in_dim):
            for c in range(out_dim):
                unit = {(pairs, last): Vector.unit(out_dim, c)}
                yield Cochain(n, pair_dim, in_dim, out_dim, unit)


def ref_omega(rep):
    """Pair-substitution coefficients for the double-slot term.

    omega[q][s] expands e_{s1} ^ d(q, e_{s2}) + d(q, e_{s1}) ^ e_{s2}
    over the pair basis, where d is the descendent bracket of the pair q.
    """
    hspace, desc = rep.algebra.space, rep.algebra.bracket
    wedge = WedgePairBasis(hspace)
    P = wedge.dim
    omega = [[None] * P for _ in range(P)]
    for qpos, (qu, qv) in enumerate(wedge.pairs):
        for spos, (su, sv) in enumerate(wedge.pairs):
            acc = Vector.zero(P)
            dv = desc.value(qu, qv, sv)
            if dv is not None:
                acc = acc + wedge.wedge_expand(hspace.basis_vector(su), dv)
            du = desc.value(qu, qv, su)
            if du is not None:
                acc = acc + wedge.wedge_expand(du, hspace.basis_vector(sv))
            omega[qpos][spos] = {r: c for r, c in acc.iter_nonzero()}
    return omega


def ref_apply_delta(rep, omega, phi):
    """The differential of phi, degree n -> n + 1, term by term."""
    n = phi.degree
    hdim = rep.algebra.space.dim
    pairs_basis = WedgePairBasis(rep.algebra.space).pairs
    P = len(pairs_basis)
    l_act, m_act, r_act = rep.l_act, rep.m_act, rep.r_act
    desc = rep.algebra.bracket
    out = {}

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
                    row = omega[qpos]
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
    return Cochain(n + 1, P, hdim, phi.out_dim, out)


def ref_delta0_cochain(p, a1, a2):
    """Degree-1 coboundary of an algebra pair: u -> T(rho(a1,a2)u) - [a1,a2,Tu]."""
    hspace = p.h_space
    coords = {}
    for u in range(hspace.dim):
        e_u = hspace.basis_vector(u)
        coords[((), u)] = p.tensor.apply(p.rho.apply(a1, a2, e_u)) - p.l_bracket.eval(
            a1, a2, p.tensor.apply(e_u)
        )
    return Cochain(
        1, WedgePairBasis(hspace).dim, hspace.dim, p.l_space.dim, coords
    )


def ref_delta_matrix(p, rep, n):
    """The differential out of degree n, one unit cochain per column."""
    hdim, ldim = p.h_space.dim, p.l_space.dim
    P = WedgePairBasis(p.h_space).dim
    if n == 0:
        lspace = p.l_space
        images = [
            ref_delta0_cochain(p, lspace.basis_vector(a), lspace.basis_vector(b))
            for a, b in WedgePairBasis(lspace).pairs
        ]
    else:
        omega = ref_omega(rep)
        images = [
            ref_apply_delta(rep, omega, unit) for unit in _ref_units(n, P, hdim, ldim)
        ]
    return Matrix.from_cols(
        map(_ref_coordinates, images), nrows=P**n * hdim * ldim
    )


def ref_pushforward(h, phi):
    """Transport phi along h slot by slot: the pair slots and the final slot
    through the inverse of f_H, the values through f_L."""
    fh_inv = h.f_h.inverse()
    target_wedge = WedgePairBasis(h.target.h_space)
    source_wedge = WedgePairBasis(h.source.h_space)
    hdim = h.source.h_space.dim

    # for each source pair index r: the target pairs q whose transported
    # wedge hits r, with coefficients
    by_source_pair = {}
    for q, (a, b) in enumerate(target_wedge.pairs):
        expanded = source_wedge.wedge_expand(fh_inv.column(a), fh_inv.column(b))
        for r, cval in expanded.iter_nonzero():
            by_source_pair.setdefault(r, []).append((q, cval))

    fm = fh_inv.matrix
    out = {}
    for (rpairs, m), val in phi.coords.items():
        pushed = h.f_l.apply(val)
        if pushed.is_zero():
            continue
        slot_opts = [by_source_pair.get(r, ()) for r in rpairs]
        w_opts = [(w, fm.at(m, w)) for w in range(hdim) if fm.at(m, w) != 0]
        for combo in product(*slot_opts):
            coeff = Fraction(1)
            for _, cv in combo:
                coeff *= cv
            qtuple = tuple(q for q, _ in combo)
            for w, fw in w_opts:
                key = (qtuple, w)
                term = pushed.scale(coeff * fw)
                out[key] = out[key] + term if key in out else term
    return Cochain(
        phi.degree, target_wedge.dim, hdim, h.target.l_space.dim, out
    )


def ref_pushforward_matrix(h, n):
    """The transport in degree n, one unit cochain per column."""
    source, target = h.source, h.target
    P = WedgePairBasis(source.h_space).dim
    hdim = source.h_space.dim
    images = [
        ref_pushforward(h, unit)
        for unit in _ref_units(n, P, hdim, source.l_space.dim)
    ]
    return Matrix.from_cols(
        map(_ref_coordinates, images),
        nrows=WedgePairBasis(target.h_space).dim ** (n - 1)
        * target.h_space.dim
        * target.l_space.dim,
    )


# ---------------------------------------------------------------------------
# wedge references: a 2-vector as its dense antisymmetric matrix


def ref_wedge_matrix(w: Vector, dim: int) -> list:
    """The antisymmetric matrix X of a 2-vector w, whose coordinates run
    over the increasing pairs of range(dim) in lexicographic order:
    X[i][j] = w_ij = -X[j][i]."""
    X = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), c in zip(combinations(range(dim), 2), w, strict=True):
        X[i][j], X[j][i] = c, -c
    return X


def ref_decompose_wedge(x_entries: list, dim: int) -> list:
    """`deformations._decompose_wedge` as it was before it read columns off
    the 2-vector: it peels the dense antisymmetric matrix, at its first
    nonzero entry (i, j) above the diagonal, with coefficient c, into
    a1 = column i and a2 = column j / c, and subtracts a1 a2^T - a2 a1^T."""
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
        a2 = Vector([Fraction(X[r][j]) / c for r in range(dim)])
        pieces.append((a1, a2))
        for r in range(dim):
            for s in range(dim):
                X[r][s] -= a1[r] * a2[s] - a2[r] * a1[s]


# ---------------------------------------------------------------------------
# full-scan law references
#
# Each reference evaluates both sides of a law on every tuple of its scope,
# with dense evaluation and no join, and builds the same report the package
# builds, gates included: a report of the package and of its reference must
# be identical, witnesses and counts included.


_GATES = {}


def _gate(check):
    """Memoize a reference check's report per object, as the package
    memoizes its gate reports."""

    def memoized(obj, *args):
        key = (check.__name__, id(obj), args)
        if key not in _GATES:
            # holding obj keeps it alive, so no other object takes its id
            _GATES[key] = (obj, check(obj, *args))
        return _GATES[key][1]

    return memoized


def _extend(lookup, v, zero):
    """Linear extension in one slot: the sum of v_m * lookup(m) over m."""
    acc = zero
    if v is None:
        return acc
    for m, c in v.iter_nonzero():
        val = lookup(m)
        if val is not None:
            acc = acc + val.scale(c)
    return acc


def _scan(rep, name, scope, tuples, sides, show, where):
    """One law on every tuple of its scope, in scan order."""
    line = rep.line(name, scope)
    for t in tuples:
        line.checked += 1
        lhs, rhs = sides(t)
        if lhs != rhs:
            line.add_failure(one_based(t), where(t), show(lhs), show(rhs))
    return line


def _fundamental_sides(table, b1, b2, c, d, e, zero):
    value = table.value
    lhs = _extend(lambda m: value(b1, b2, m), value(c, d, e), zero)
    rhs = (
        _extend(lambda m: value(m, d, e), value(b1, b2, c), zero)
        + _extend(lambda m: value(c, m, e), value(b1, b2, d), zero)
        + _extend(lambda m: value(c, d, m), value(b1, b2, e), zero)
    )
    return lhs, rhs


def ref_check_3lie(a):
    space = a.space
    n = space.dim
    zero = space.zero()
    rep = Report(f"3-Lie axioms on {space.name}")
    _scan(
        rep,
        "fundamental identity",
        "increasing pairs x increasing triples",
        product(combinations(range(n), 2), combinations(range(n), 3)),
        lambda t: _fundamental_sides(a.bracket, *t[0], *t[1], zero),
        partial(format_vector, space),
        lambda t: f"pair {tuple_label(space, t[0])}, "
        f"triple {tuple_label(space, t[1])}",
    )
    return rep


@_gate
def ref_check_3leibniz(a):
    space = a.space
    zero = space.zero()
    rep = Report(f"ternary Leibniz axioms on {space.name}")
    _scan(
        rep,
        "fundamental identity",
        "all ordered basis 5-tuples",
        product(range(space.dim), repeat=5),
        lambda t: _fundamental_sides(a.bracket, *t, zero),
        partial(format_vector, space),
        partial(tuple_label, space),
    )
    return rep


def ref_check_lie(a):
    space = a.space
    zero = space.zero()
    value = a.value
    rep = Report(f"Lie axioms on {space.name}")

    def jacobi(t):
        i, j, k = t
        jac = (
            _extend(lambda m: value(m, k), value(i, j), zero)
            + _extend(lambda m: value(m, i), value(j, k), zero)
            + _extend(lambda m: value(m, j), value(k, i), zero)
        )
        return jac, zero

    _scan(
        rep,
        "Jacobi identity",
        "increasing basis triples",
        combinations(range(space.dim), 3),
        jacobi,
        partial(format_vector, space),
        partial(tuple_label, space),
    )
    return rep


def ref_check_leibniz_lie(a):
    space = a.space
    zero = space.zero()
    prod, lie = a.product, a.lie.value
    rep = Report(f"Leibniz-Lie axioms on {space.name}")
    rep.absorb(ref_check_lie(a.lie), "underlying Lie algebra")

    def left_multiplication(t):
        i, j, k = t
        lhs = _extend(lambda m: prod(i, m), prod(j, k), zero)
        rhs = (
            _extend(lambda m: prod(m, k), prod(i, j), zero)
            + _extend(lambda m: prod(j, m), prod(i, k), zero)
            + _extend(lambda m: prod(m, k), lie(i, j), zero)
        )
        return lhs, rhs

    laws = (
        ("left multiplication law", left_multiplication),
        (
            "product kills brackets",
            lambda t: (_extend(lambda m: prod(t[0], m), lie(t[1], t[2]), zero), zero),
        ),
        (
            "bracket kills products",
            lambda t: (_extend(lambda m: lie(m, t[2]), prod(t[0], t[1]), zero), zero),
        ),
    )
    for name, sides in laws:
        _scan(
            rep,
            name,
            "all ordered basis triples",
            product(range(space.dim), repeat=3),
            sides,
            partial(format_vector, space),
            partial(tuple_label, space),
        )
    return rep


def ref_check_3ll(a):
    space = a.space
    zero = space.zero()
    rep = Report(f"ternary brace axioms on {space.name}")
    gate = ref_check_3lie(ThreeLieAlgebra(space, a.lie3.bracket))
    if not gate.ok:
        rep.absorb(gate, "underlying bracket")
        return rep.refuse("underlying bracket fails the fundamental identity")
    brace = a.braces.value
    bracket = a.lie3.bracket.value

    def compatibility(t):
        h1, h2, h3, h4, h5 = t
        lhs, rhs = _fundamental_sides(a.braces, *t, zero)
        rhs = (
            rhs
            + _extend(lambda m: brace(m, h4, h5), bracket(h1, h2, h3), zero)
            + _extend(lambda m: brace(h3, m, h5), bracket(h1, h2, h4), zero)
        )
        return lhs, rhs

    laws = (
        ("brace compatibility law", compatibility),
        (
            "braces kill bracket outputs",
            lambda t: (
                _extend(lambda m: brace(t[0], t[1], m), bracket(*t[2:]), zero),
                zero,
            ),
        ),
        (
            "bracket kills brace outputs",
            lambda t: (
                _extend(lambda m: bracket(m, t[3], t[4]), brace(*t[:3]), zero),
                zero,
            ),
        ),
    )
    for name, sides in laws:
        _scan(
            rep,
            name,
            "all ordered basis 5-tuples",
            product(range(space.dim), repeat=5),
            sides,
            partial(format_vector, space),
            partial(tuple_label, space),
        )
    return rep


_HOM_LAWS = {
    "lie": (("binary bracket preserved", "increasing basis pairs", None),),
    "3lie": (("ternary bracket preserved", "increasing basis triples", None),),
    "3leibniz": (("ternary bracket preserved", "all ordered basis triples", None),),
    "3ll": (
        ("ternary bracket preserved", "increasing basis triples", "lie3"),
        ("braces preserved", "all ordered basis triples", "braces"),
    ),
}
_HOM_TUPLES = {
    "increasing basis pairs": lambda rng: combinations(rng, 2),
    "increasing basis triples": lambda rng: combinations(rng, 3),
    "all ordered basis triples": lambda rng: product(rng, repeat=3),
}


def ref_check_hom(kind, f, src, dst):
    rep = Report(f"structure map check ({kind})")
    space = src.space
    images = [f.column(i) for i in range(space.dim)]

    def push(v):
        return f.apply(space.zero() if v is None else v)

    for name, scope, part in _HOM_LAWS[kind]:
        source = src if part is None else getattr(src, part)
        target = dst if part is None else getattr(dst, part)
        _scan(
            rep,
            name,
            scope,
            _HOM_TUPLES[scope](range(space.dim)),
            lambda t: (
                push(source.value(*t)),
                target.eval(*(images[x] for x in t)),
            ),
            partial(format_vector, dst.space),
            partial(tuple_label, space),
        )
    return rep


@_gate
def ref_check_representation(r):
    rep = Report("pair-action representation check")
    gate = ref_check_3lie(r.algebra)
    if not gate.ok:
        rep.absorb(gate, "acting algebra")
        return rep.refuse("acting algebra fails the fundamental identity")
    space = r.algebra.space
    value = r.algebra.value
    zero = Matrix.zeros(r.carrier.dim, r.carrier.dim)

    def op(i, j):
        mat = r.rho.at(i, j)
        return zero if mat is None else mat

    def fundamental(t):
        l1, l2, l3, l4 = t
        lhs = _extend(lambda m: r.rho.at(m, l4), value(l1, l2, l3), zero)
        rhs = (
            op(l2, l3).mul(op(l1, l4))
            + op(l3, l1).mul(op(l2, l4))
            + op(l1, l2).mul(op(l3, l4))
        )
        return lhs, rhs

    def commutator(t):
        l1, l2, l3, l4 = t
        lhs = op(l1, l2).mul(op(l3, l4))
        rhs = (
            op(l3, l4).mul(op(l1, l2))
            + _extend(lambda m: r.rho.at(m, l4), value(l1, l2, l3), zero)
            + _extend(lambda m: r.rho.at(l3, m), value(l1, l2, l4), zero)
        )
        return lhs, rhs

    for name, sides in (
        ("action fundamental law", fundamental),
        ("action commutator law", commutator),
    ):
        _scan(
            rep,
            name,
            "all ordered basis 4-tuples",
            product(range(space.dim), repeat=4),
            sides,
            format_matrix,
            partial(tuple_label, space),
        )
    return rep


@_gate
def ref_check_coherent_action(c):
    rep = Report("coherent action check")
    gate = ref_check_representation(c.rep)
    if gate.verdict != "pass":
        rep.absorb(gate, "representation")
        return rep.refuse("representation laws do not hold")
    lspace, hspace = c.algebra.space, c.carrier
    zero = hspace.zero()
    hb = c.target_bracket.value
    no_op = Matrix.zeros(hspace.dim, hspace.dim)
    rep.absorb(
        ref_check_3lie(ThreeLieAlgebra(hspace, c.target_bracket)), "carrier bracket"
    )

    def derivation(t):
        (i, j), (h1, h2, h3) = t
        mat = c.rho.coords.get((i, j), no_op)
        hval = hb(h1, h2, h3)
        lhs = zero if hval is None else mat.mul_vec(hval)
        rhs = (
            _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero)
            + _extend(lambda m: hb(h1, m, h3), mat.col(h2), zero)
            + _extend(lambda m: hb(h1, h2, m), mat.col(h3), zero)
        )
        return lhs, rhs

    def annihilation(t):
        (i, j), (h1, h2, h3) = t
        mat = c.rho.coords.get((i, j), no_op)
        return _extend(lambda m: hb(m, h2, h3), mat.col(h1), zero), zero

    for name, sides in (
        ("derivation law", derivation),
        ("annihilation law", annihilation),
    ):
        _scan(
            rep,
            name,
            "increasing pairs x all ordered carrier triples",
            product(
                combinations(range(lspace.dim), 2), product(range(hspace.dim), repeat=3)
            ),
            sides,
            partial(format_vector, hspace),
            lambda t: f"pair {tuple_label(lspace, t[0])}, "
            f"triple {tuple_label(hspace, t[1])}",
        )
    return rep


@_gate
def ref_check_net(p, mode="all"):
    rep = Report("embedding tensor check")
    gate = ref_check_coherent_action(p.action)
    if gate.verdict != "pass":
        rep.absorb(gate, "coherent action")
        return rep.refuse("the action is not coherent")
    hspace = p.h_space
    lam_cols = p.tensor_columns()
    if mode == "all":
        scope = "all ordered carrier triples"
        tuples = product(range(hspace.dim), repeat=3)
    else:
        scope = "increasing carrier triples"
        tuples = combinations(range(hspace.dim), 3)

    def condition(t):
        i, j, k = t
        lhs = p.l_bracket.eval(lam_cols[i], lam_cols[j], lam_cols[k])
        inner = p.rho.apply(lam_cols[i], lam_cols[j], hspace.basis_vector(k))
        hval = p.h_bracket.value(i, j, k)
        if hval is not None:
            inner = inner + hval
        return lhs, p.tensor.apply(inner)

    _scan(
        rep,
        "embedding-tensor condition",
        scope,
        tuples,
        condition,
        partial(format_vector, p.l_space),
        partial(tuple_label, hspace),
    )
    return rep


def ref_graph_check(p):
    """Closure of the graph, evaluated in the combined bracket on L + H."""
    rep = Report("graph closure check")
    gate = ref_check_coherent_action(p.action)
    if gate.verdict != "pass":
        rep.absorb(gate, "coherent action")
        return rep.refuse("the action is not coherent")
    combined = hemisemidirect_table(p.action)
    lspace, hspace = p.l_space, p.h_space
    ldim = lspace.dim
    lam_cols = p.tensor_columns()
    graph_basis = [
        Vector(lam_cols[i].entries + hspace.basis_vector(i).entries)
        for i in range(hspace.dim)
    ]

    def closure(t):
        out = combined.eval(*(graph_basis[i] for i in t))
        h_part = Vector(out.entries[ldim:])
        on_graph = ("graph", p.tensor.apply(h_part), h_part)
        return (Vector(out.entries[:ldim]), h_part), on_graph

    def show(side):
        if side[0] == "graph":
            return f"graph element over {format_vector(hspace, side[2])}"
        return f"({format_vector(lspace, side[0])} ; {format_vector(hspace, side[1])})"

    line = rep.line("graph closure", "all ordered graph-basis triples")
    for t in product(range(hspace.dim), repeat=3):
        line.checked += 1
        (l_part, h_part), on_graph = closure(t)
        if l_part != on_graph[1]:
            line.add_failure(
                one_based(t),
                tuple_label(hspace, t),
                show((l_part, h_part)),
                show(on_graph),
            )
    agreement = ref_check_net(p, "all")
    rep.note(
        "tensor-condition cross-check: "
        + ("agrees" if agreement.ok == rep.ok else "DISAGREES")
    )
    return rep


def ref_descendent_coords(p) -> dict:
    """The descendent bracket on H, operator by dense operator."""
    lam_cols = p.tensor_columns()
    coords = {}
    for i, j in product(range(p.h_space.dim), repeat=2):
        op = p.rho.eval(lam_cols[i], lam_cols[j])
        for k in sorted({k for (_, k), _ in op.items()}):
            coords[(i, j, k)] = op.col(k)
    for key, hval in p.h_bracket.expand_ordered().items():
        coords[key] = coords[key] + hval if key in coords else hval
    return {key: v for key, v in sorted(coords.items()) if not v.is_zero()}


def ref_induced_rep(p) -> ThreeLeibnizRep:
    """The induced representation, column by column with dense evaluation."""
    hspace, lspace = p.h_space, p.l_space
    lam, lam_cols = p.tensor, p.tensor_columns()
    lb, rho = p.l_bracket, p.rho
    desc = ThreeLeibnizAlgebra(
        hspace, TrilinearTable(hspace, hspace, ref_descendent_coords(p))
    )
    l_act, m_act, r_act = {}, {}, {}
    basis_l = [lspace.basis_vector(c) for c in range(lspace.dim)]
    for i, j in product(range(hspace.dim), repeat=2):
        li, lj, ej = lam_cols[i], lam_cols[j], hspace.basis_vector(j)
        l_act[(i, j)] = Matrix.from_cols(
            [lb.eval(li, lj, e) for e in basis_l], nrows=lspace.dim
        )
        m_act[(i, j)] = Matrix.from_cols(
            [lb.eval(li, e, lj) - lam.apply(rho.apply(li, e, ej)) for e in basis_l],
            nrows=lspace.dim,
        )
        r_act[(i, j)] = Matrix.from_cols(
            [lb.eval(e, li, lj) - lam.apply(rho.apply(e, li, ej)) for e in basis_l],
            nrows=lspace.dim,
        )
    return ThreeLeibnizRep(desc, lspace, l_act, m_act, r_act)


def ref_check_3leibniz_rep(r):
    rep = Report("ternary Leibniz representation check")
    gate = ref_check_3leibniz(r.algebra)
    if not gate.ok:
        rep.absorb(gate, "underlying algebra")
        return rep.refuse("underlying algebra fails the fundamental identity")
    space = r.algebra.space
    zero = Matrix.zeros(r.carrier.dim, r.carrier.dim)
    value = r.algebra.value
    l_act, m_act, r_act = r.l_act, r.m_act, r.r_act

    def composition(act):
        def sides(t):
            a1, a2, a3, a4 = t
            left, op = l_act.get((a1, a2), zero), act.get((a3, a4), zero)
            rhs = (
                op.mul(left)
                + _extend(lambda m: act.get((m, a4)), value(a1, a2, a3), zero)
                + _extend(lambda m: act.get((a3, m)), value(a1, a2, a4), zero)
            )
            return left.mul(op), rhs

        return sides

    def expansion(act):
        def sides(t):
            a1, a2, a3, a4 = t
            lhs = _extend(lambda m: act.get((a1, m)), value(a2, a3, a4), zero)
            rhs = (
                r_act.get((a3, a4), zero).mul(act.get((a1, a2), zero))
                + m_act.get((a2, a4), zero).mul(act.get((a1, a3), zero))
                + l_act.get((a2, a3), zero).mul(act.get((a1, a4), zero))
            )
            return lhs, rhs

        return sides

    for name, sides in (
        ("left-left composition law", composition(l_act)),
        ("left-middle composition law", composition(m_act)),
        ("left-right composition law", composition(r_act)),
        ("middle bracket-expansion law", expansion(m_act)),
        ("right bracket-expansion law", expansion(r_act)),
    ):
        _scan(
            rep,
            name,
            "all ordered basis 4-tuples",
            product(range(space.dim), repeat=4),
            sides,
            format_matrix,
            partial(tuple_label, space),
        )
    return rep


def ref_check_infinitesimal(d):
    rep = Report("first-order deformation check")
    gate = ref_check_net(d.problem, "all")
    if not gate.ok:
        rep.absorb(gate, "base tensor")
        return rep.refuse("the undeformed tensor condition fails")
    p = d.problem
    lam, lam1 = p.tensor, d.direction
    lb, rho, hspace = p.l_bracket, p.rho, p.h_space
    L = p.tensor_columns()
    M = [lam1.column(i) for i in range(hspace.dim)]
    zero = p.l_space.zero()

    def residual(t):
        i, j, k = t
        ek = hspace.basis_vector(k)
        res = (
            lb.eval(M[i], L[j], L[k])
            + lb.eval(L[i], M[j], L[k])
            + lb.eval(L[i], L[j], M[k])
        )
        res = res - lam1.apply(rho.apply(L[i], L[j], ek))
        res = res - lam.apply(rho.apply(M[i], L[j], ek))
        res = res - lam.apply(rho.apply(L[i], M[j], ek))
        hv = p.h_bracket.value(i, j, k)
        if hv is not None:
            res = res - lam1.apply(hv)
        return res, zero

    line = _scan(
        rep,
        "first-order tensor condition",
        "all ordered basis triples",
        product(range(hspace.dim), repeat=3),
        residual,
        partial(format_vector, p.l_space),
        partial(tuple_label, hspace),
    )
    complex_ = _complex_of(p)
    cocycle = rep.line("cocycle condition", "degree-1 differential")
    cocycle.checked += 1
    image = ref_apply_delta(
        complex_.rep,
        ref_omega(complex_.rep),
        complex_.cochain_from_linear_map(d.direction),
    )
    if not image.is_zero():
        cocycle.add_failure(
            (1,),
            "differential of the direction",
            format_vector_raw(complex_.vec(image)),
            "0",
        )
    agree = line.passed == cocycle.passed
    rep.note(
        "direct expansion and the differential " + ("agree" if agree else "DISAGREE")
    )
    return rep


def ref_check_higher_order(d):
    rep = Report("higher-order deformation check")
    gate = ref_check_net(d.problem, "all")
    if not gate.ok:
        rep.absorb(gate, "base tensor")
        return rep.refuse("the undeformed tensor condition fails")
    p = d.problem
    lam, lam1 = p.tensor, d.direction
    lb, rho, hspace = p.l_bracket, p.rho, p.h_space
    L = p.tensor_columns()
    M = [lam1.column(i) for i in range(hspace.dim)]

    def second(t):
        i, j, k = t
        ek = hspace.basis_vector(k)
        lhs = (
            lb.eval(M[i], M[j], L[k])
            + lb.eval(M[i], L[j], M[k])
            + lb.eval(L[i], M[j], M[k])
        )
        rhs = (
            lam1.apply(rho.apply(M[i], L[j], ek))
            + lam1.apply(rho.apply(L[i], M[j], ek))
            + lam.apply(rho.apply(M[i], M[j], ek))
        )
        return lhs, rhs

    def third(t):
        i, j, k = t
        lhs = lb.eval(M[i], M[j], M[k])
        return lhs, lam1.apply(rho.apply(M[i], M[j], hspace.basis_vector(k)))

    for name, sides in (
        ("second-order condition", second),
        ("third-order condition", third),
    ):
        _scan(
            rep,
            name,
            "all ordered basis triples",
            product(range(hspace.dim), repeat=3),
            sides,
            partial(format_vector, p.l_space),
            partial(tuple_label, hspace),
        )
    return rep


def ref_is_bracket_derivation(rep, name, bracket, op):
    space = bracket.domain
    basis = [space.basis_vector(t) for t in range(space.dim)]

    def sides(t):
        ei, ej, ek = (basis[x] for x in t)
        lhs = op.mul_vec(bracket.eval(ei, ej, ek))
        rhs = (
            bracket.eval(op.mul_vec(ei), ej, ek)
            + bracket.eval(ei, op.mul_vec(ej), ek)
            + bracket.eval(ei, ej, op.mul_vec(ek))
        )
        return lhs, rhs

    _scan(
        rep,
        name,
        "increasing basis triples",
        combinations(range(space.dim), 3),
        sides,
        partial(format_vector, space),
        partial(tuple_label, space),
    )


def ref_action_compatibility(rep, p, d_l, d_h):
    def compatibility(t):
        ea, eb = (p.l_space.basis_vector(x) for x in t)
        lhs = d_h.mul(p.rho.eval(ea, eb))
        rhs = (
            p.rho.eval(d_l.mul_vec(ea), eb)
            + p.rho.eval(ea, d_l.mul_vec(eb))
            + p.rho.eval(ea, eb).mul(d_h)
        )
        return lhs, rhs

    _scan(
        rep,
        "action compatibility",
        "increasing basis pairs",
        combinations(range(p.l_space.dim), 2),
        compatibility,
        format_matrix,
        partial(tuple_label, p.l_space),
    )


def ref_check_net_hom(h):
    rep = Report("embedding tensor map check")
    for label, problem in (("source", h.source), ("target", h.target)):
        gate = ref_check_net(problem, "all")
        if not gate.ok:
            rep.absorb(gate, f"{label} tensor")
            return rep.refuse(f"{label} problem has no valid tensor")
    src, dst = h.source, h.target
    fl_gate = ref_check_hom(
        "3lie",
        h.f_l,
        ThreeLieAlgebra(src.l_space, src.l_bracket),
        ThreeLieAlgebra(dst.l_space, dst.l_bracket),
    )
    fh_gate = ref_check_hom(
        "3lie",
        h.f_h,
        ThreeLieAlgebra(src.h_space, src.h_bracket),
        ThreeLieAlgebra(dst.h_space, dst.h_bracket),
    )
    if not (fl_gate.ok and fh_gate.ok):
        rep.absorb(fl_gate, "f_L bracket preservation")
        rep.absorb(fh_gate, "f_H bracket preservation")
        return rep.refuse("component maps do not preserve the brackets")
    hspace_src, lspace_src = src.h_space, src.l_space
    inter = _scan(
        rep,
        "tensor intertwining",
        "carrier basis vectors",
        ((i,) for i in range(hspace_src.dim)),
        lambda t: (
            dst.tensor.apply(h.f_h.column(t[0])),
            h.f_l.apply(src.tensor.column(t[0])),
        ),
        partial(format_vector, dst.l_space),
        lambda t: f"({hspace_src.label(t[0])})",
    )

    def action_sides(t):
        ((i, j),) = t
        e_i, e_j = lspace_src.basis_vector(i), lspace_src.basis_vector(j)
        lhs = h.f_h.matrix.mul(src.rho.eval(e_i, e_j))
        rhs = dst.rho.eval(h.f_l.column(i), h.f_l.column(j)).mul(h.f_h.matrix)
        return lhs, rhs

    act = _scan(
        rep,
        "action intertwining",
        "increasing algebra pairs (operator identity)",
        ((pair,) for pair in combinations(range(lspace_src.dim), 2)),
        action_sides,
        format_matrix,
        lambda t: f"pair {tuple_label(lspace_src, t[0])}",
    )
    if inter.passed and act.passed:
        desc_src = TrilinearTable(hspace_src, hspace_src, ref_descendent_coords(src))
        desc_dst = TrilinearTable(dst.h_space, dst.h_space, ref_descendent_coords(dst))
        fh_cols = [h.f_h.column(i) for i in range(hspace_src.dim)]
        lam_cols_src = src.tensor_columns()
        zero_h = hspace_src.zero()

        def descendent_sides(t):
            i, j, k = t
            val = desc_src.value(i, j, k)
            lhs = h.f_h.apply(val if val is not None else zero_h)
            return lhs, desc_dst.eval(fh_cols[i], fh_cols[j], fh_cols[k])

        def brace_sides(t):
            i, j, k = t
            lhs = h.f_h.apply(
                src.rho.apply(
                    lam_cols_src[i], lam_cols_src[j], hspace_src.basis_vector(k)
                )
            )
            rhs = dst.rho.apply(
                dst.tensor.apply(fh_cols[i]), dst.tensor.apply(fh_cols[j]), fh_cols[k]
            )
            return lhs, rhs

        for name, sides in (
            ("descendent bracket preserved", descendent_sides),
            ("induced braces preserved", brace_sides),
        ):
            _scan(
                rep,
                name,
                "all ordered carrier triples",
                product(range(hspace_src.dim), repeat=3),
                sides,
                partial(format_vector, dst.h_space),
                partial(tuple_label, hspace_src),
            )
    return rep


def ref_check_trace(t, algebra):
    if isinstance(algebra, LeibnizLieAlgebra):
        lie, products = algebra.lie, algebra
    else:
        lie, products = algebra, None
    rep = Report("trace check")
    space = lie.space
    rng = range(space.dim)
    laws = [
        (
            "vanishes on brackets",
            "increasing basis pairs",
            lie.value,
            combinations(rng, 2),
        )
    ]
    if products is not None:
        laws.append(
            (
                "vanishes on products",
                "all ordered basis pairs",
                products.product,
                product(rng, repeat=2),
            )
        )
    for name, scope, value, pairs in laws:

        def sides(pair, value=value):
            v = value(*pair)
            return (t.apply(v) if v is not None else Fraction(0)), Fraction(0)

        _scan(rep, name, scope, pairs, sides, str, partial(tuple_label, space))
    return rep


def ref_check_lie_coherent(a):
    rep = Report("coherent Lie action check")
    gate = ref_check_lie(a.lie)
    if not gate.ok:
        rep.absorb(gate, "acting algebra")
        return rep.refuse("the acting algebra fails the Jacobi identity")
    rep.absorb(ref_check_lie(a.carrier), "carrier bracket")
    lspace, hspace = a.lie.space, a.carrier.space
    ldim, hdim = lspace.dim, hspace.dim
    ops = [a.operator(i) for i in range(ldim)]
    basis = [hspace.basis_vector(h) for h in range(hdim)]
    bracket = a.carrier.eval

    def commutator(t):
        i, j = t
        v = a.lie.value(i, j)
        lhs = _extend(a.operator, v, Matrix.zeros(hdim, hdim))
        return lhs, ops[i].mul(ops[j]) - ops[j].mul(ops[i])

    def derivation(t):
        i, (h1, h2) = t
        op, e1, e2 = ops[i], basis[h1], basis[h2]
        lhs = op.mul_vec(bracket(e1, e2))
        rhs = bracket(op.mul_vec(e1), e2) + bracket(e1, op.mul_vec(e2))
        return lhs, rhs

    def annihilation(t):
        i, (h1, h2) = t
        return bracket(ops[i].mul_vec(basis[h1]), basis[h2]), hspace.zero()

    _scan(
        rep,
        "commutator law",
        "increasing acting pairs",
        combinations(range(ldim), 2),
        commutator,
        format_matrix,
        partial(tuple_label, lspace),
    )
    for name, scope, pairs, sides in (
        (
            "derivation law",
            "basis operators x increasing carrier pairs",
            combinations(range(hdim), 2),
            derivation,
        ),
        (
            "annihilation law",
            "basis operators x all ordered carrier pairs",
            product(range(hdim), repeat=2),
            annihilation,
        ),
    ):
        _scan(
            rep,
            name,
            scope,
            product(range(ldim), pairs),
            sides,
            partial(format_vector, hspace),
            lambda t: f"{lspace.label(t[0])} on {tuple_label(hspace, t[1])}",
        )
    return rep


def ref_check_lie_net(n):
    rep = Report("Lie embedding tensor check")
    gate = ref_check_lie_coherent(n.action)
    if gate.verdict != "pass":
        rep.absorb(gate, "action")
        return rep.refuse("the underlying action is not coherent")
    a = n.action
    hspace = a.carrier.space
    hdim = hspace.dim
    basis = [hspace.basis_vector(h) for h in range(hdim)]
    cols = [n.tensor.apply(e) for e in basis]

    def condition(t):
        i, j = t
        lhs = a.lie.eval(cols[i], cols[j])
        op = _extend(a.operator, cols[i], Matrix.zeros(hdim, hdim))
        inner = op.mul_vec(basis[j]) + a.carrier.eval(basis[i], basis[j])
        return lhs, n.tensor.apply(inner)

    _scan(
        rep,
        "embedding-tensor condition",
        "all ordered carrier pairs",
        product(range(hdim), repeat=2),
        condition,
        partial(format_vector, a.lie.space),
        partial(tuple_label, hspace),
    )
    return rep


def ref_trace_compatibility(n, sigma_l, sigma_h):
    """The report `lift_net` refuses with when the traces disagree."""
    compat = Report("trace compatibility check")
    hspace = n.action.carrier.space
    _scan(
        compat,
        "traces agree through the tensor",
        "carrier basis vectors",
        ((u,) for u in range(hspace.dim)),
        lambda t: (
            sigma_l.apply(n.tensor.apply(hspace.basis_vector(t[0]))),
            sigma_h.at(t[0]),
        ),
        str,
        lambda t: hspace.label(t[0]),
    )
    return compat


def ref_witness_side_conditions(rep, p, pieces):
    """The notes `are_equivalent` adds about an equivalence witness."""
    ldim, hdim = p.l_space.dim, p.h_space.dim
    d_l = Matrix.zeros(ldim, ldim)
    d_h = Matrix.zeros(hdim, hdim)
    for a1, a2 in pieces:
        cols = [
            p.l_bracket.eval(a1, a2, p.l_space.basis_vector(c)) for c in range(ldim)
        ]
        d_l = d_l + Matrix.from_cols(cols, nrows=ldim)
        d_h = d_h + p.rho.eval(a1, a2)
    side = Report("witness side conditions")
    for name, bracket, op in (
        ("derivation on the outer bracket", p.l_bracket, d_l),
        ("derivation on the carrier bracket", p.h_bracket, d_h),
    ):
        ref_is_bracket_derivation(side, name, bracket, op)
    ref_action_compatibility(side, p, d_l, d_h)
    for ln in side.checks:
        status = "holds" if ln.passed else "fails"
        detail = "" if ln.passed else f" (first at {ln.failures[0].where})"
        rep.note(f"witness side condition: {ln.name} {status}{detail}")
