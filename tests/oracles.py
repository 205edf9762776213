"""Independent oracles and random instance generators for the test suite.

The elimination oracle is a deliberately separate implementation — partial
pivoting by largest absolute value, dense Gauss-Jordan over plain lists of
Fractions — so the package's sparse kernel (dict rows, column-order pivots
chosen by fewest nonzeros, then back substitution) is checked against code
that shares none of its pivoting choices or data structures.

The generators build random structured instances from families whose
validity is provable, then conjugate by random invertible maps for
variety.  Each generator asserts the package checker accepts its output,
so a bad family fails loudly at generation time instead of poisoning a
downstream assertion.
"""

from fractions import Fraction
from itertools import combinations

from tensorforge import (
    AlternatingTrilinearTable,
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
    TraceMap,
    Vector,
    WedgePairBasis,
    check_coherent_action,
    check_leibniz_lie,
    check_lie,
    check_lie_coherent,
    check_lie_net,
    check_trace,
    kernel_basis,
    rank,
)
from tensorforge.linalg import _rref

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
            i: n.scale(rand_scalar(rng))
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
        rho = {i: n.scale(rand_scalar(rng)) for i in range(ldim)}
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
