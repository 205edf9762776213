"""Seeded generator of the benchmark's input documents.

Everything here is plain ``fractions.Fraction`` arithmetic; nothing imports
``tensorforge``, so the documents and the answers derived for them are
independent of the checkers being timed.

The family is the one behind ``fixtures/example_2_8.json``: a 2-step
nilpotent 3-Lie algebra on basis ``e_1 .. e_n`` whose last ``c`` basis
vectors span a central subspace Z, with every bracket value in Z.  It acts
on itself by the adjoint action ``rho(x, y) z = [x, y, z]`` and carries the
tensor ``T`` that is the identity off Z and ``s`` on Z.

For all u, v, w the tensor condition reads
``[Tu, Tv, Tw] - T(rho(Tu, Tv) w + [u, v, w]) = (1 - 2s) [u, v, w]``,
because ``T - 1`` maps into the centre.  So ``s = 1/2`` is a valid tensor
in every basis, and for any other ``s`` the failing ordered triples are
exactly those whose bracket is nonzero.  The other answers used by the
workloads follow the same way and are derived next to each builder below.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

HALF = Fraction(1, 2)


# --- small exact linear algebra ------------------------------------------------


def identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def random_unimodular(rng, n):
    """A dense integer matrix of determinant +-1 and its integer inverse.

    ``L * U`` with unit triangular factors whose off-diagonal entries are
    +-1, then rows and columns shuffled with signs.
    """
    lower = identity(n)
    upper = identity(n)
    for r in range(n):
        for c in range(r):
            lower[r][c] = Fraction(rng.choice((-1, 1)))
            upper[c][r] = Fraction(rng.choice((-1, 1)))
    core = matmul(lower, upper)
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[core[rows[r]][cols[c]] * signs[c] for c in range(n)] for r in range(n)]
    return p, inverse(p)


def random_monomial(rng, n):
    """A signed permutation matrix and its inverse: relabels, stays sparse."""
    order = list(range(n))
    rng.shuffle(order)
    p = [[Fraction(0)] * n for _ in range(n)]
    for c, r in enumerate(order):
        p[r][c] = Fraction(rng.choice((-1, 1)))
    return p, inverse(p)


def seeded_basis(rng, n, dense):
    """A change of basis drawn from ``rng`` and its inverse.

    A signed permutation, which keeps tables sparse; when ``dense``, a fixed
    dense unimodular matrix (the same for every seed) composed with it.
    Either way the seed only relabels and re-signs the basis, so a document
    costs the same work whatever the seed.
    """
    q, qinv = random_monomial(rng, n)
    if not dense:
        return q, qinv
    p0, p0inv = random_unimodular(random.Random(f"unimodular{n}"), n)
    return matmul(p0, q), matmul(qinv, p0inv)


def inverse(m):
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, identity(n))]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# --- the nilpotent family --------------------------------------------------------


class Nilpotent:
    """A 2-step nilpotent 3-Lie algebra, written in some basis of k^n.

    ``brackets`` maps increasing 0-based triples to dense value vectors;
    entries that vanish are dropped.
    """

    def __init__(self, n, brackets):
        self.n = n
        self.brackets = {key: vec for key, vec in brackets.items() if any(vec)}

    def value(self, i, j, k):
        """The bracket of three basis vectors, or None when it vanishes."""
        if len({i, j, k}) < 3:
            return None
        key = tuple(sorted((i, j, k)))
        vec = self.brackets.get(key)
        if vec is None:
            return None
        sign = perm_sign([key.index(x) for x in (i, j, k)])
        return vec if sign > 0 else [-x for x in vec]

    def operator(self, i, j):
        """Matrix of rho(e_i, e_j) = [e_i, e_j, -] as a list of rows."""
        n = self.n
        m = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            vec = self.value(i, j, k)
            if vec is not None:
                for r in range(n):
                    m[r][k] = vec[r]
        return m

    def transformed(self, p, pinv):
        """The same algebra in the basis f_i = sum_r p[r][i] e_r."""
        n = self.n
        ordered = []
        for key, vec in self.brackets.items():
            for perm in permutations(range(3)):
                idx = tuple(key[x] for x in perm)
                sign = perm_sign(perm)
                ordered.append((idx, vec if sign > 0 else [-x for x in vec]))
        out = {}
        for i, j, k in combinations(range(n), 3):
            acc = [Fraction(0)] * n
            for (r, s, t), vec in ordered:
                coef = p[r][i] * p[s][j] * p[t][k]
                if coef:
                    acc = [a + coef * v for a, v in zip(acc, vec)]
            out[(i, j, k)] = apply(pinv, acc)
        return Nilpotent(n, out)


def apply(m, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in m]


def conjugate(pinv, m, p):
    return matmul(matmul(pinv, m), p)


def random_nilpotent(rng, n, c, entries):
    """``entries`` random bracket entries among the first n - c basis vectors.

    Values are nonzero integer vectors in the centre (the last c vectors).
    """
    free = list(combinations(range(n - c), 3))
    chosen = sorted(rng.sample(free, min(entries, len(free))))
    brackets = {}
    for key in chosen:
        vec = [Fraction(0)] * n
        for m in range(n - c, n):
            vec[m] = Fraction(rng.choice((-2, -1, 1, 1, 2)))
        brackets[key] = vec
    return Nilpotent(n, brackets)


def central_tensor(n, c, scale):
    """Identity off the last c basis vectors, ``scale`` on them."""
    t = identity(n)
    for m in range(n - c, n):
        t[m][m] = Fraction(scale)
    return t


# --- document writing ---------------------------------------------------------------


def scalar(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def sparse(vec):
    return {str(i + 1): scalar(x) for i, x in enumerate(vec) if x}


def dense_matrix(m):
    return [[scalar(x) for x in row] for row in m]


def key(*idx):
    return ",".join(str(i + 1) for i in idx)


def three_lie_entry(alg):
    return {
        "name": "algebra",
        "space": "H",
        "brackets": {key(*k): sparse(v) for k, v in sorted(alg.brackets.items())},
    }


def document(title, n, structures):
    return {
        "format": "tensorforge/1",
        "title": title,
        "spaces": [{"name": "H", "dim": n}],
        "structures": structures,
    }


def net_structures(alg, tensor, operators=None, directions=None):
    """three_lie + adjoint representation + action + net (+ deformations).

    ``operators`` overrides rho per increasing pair (a perturbed action).
    """
    n = alg.n
    ops = {}
    for i, j in combinations(range(n), 2):
        m = operators.get((i, j)) if operators else None
        if m is None:
            m = alg.operator(i, j)
        if any(x for row in m for x in row):
            ops[key(i, j)] = dense_matrix(m)
    out = {
        "three_lie": [three_lie_entry(alg)],
        "representations": [
            {"name": "adjoint", "algebra": "algebra", "carrier": "H", "operators": ops}
        ],
        "actions": [
            {
                "name": "adjoint_action",
                "representation": "adjoint",
                "carrier_brackets": three_lie_entry(alg)["brackets"],
            }
        ],
        "nets": [
            {"name": "tensor", "action": "adjoint_action", "tensor": dense_matrix(tensor)}
        ],
    }
    if directions:
        out["deformations"] = [
            {"name": name, "net": "tensor", "direction": dense_matrix(d)}
            for name, d in directions
        ]
    return out


def descendent_brackets(alg):
    """The descendent bracket of the valid tensor, ordered keys as emitted.

    With T - 1 central, rho(Tu, Tv) = rho(u, v), so the descendent bracket
    rho(Tu, Tv) w + [u, v, w] is 2 [u, v, w].
    """
    n = alg.n
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vec = alg.value(i, j, k)
                if vec is not None:
                    out[key(i, j, k)] = sparse([2 * x for x in vec])
    return out


def induced_rep_structures(alg):
    """The descendent bracket and the representation the valid tensor induces.

    The left family is rho; the middle and right families are (1 - 1/2)
    times the bracket with the free slot in the middle or in front.
    """
    n = alg.n
    left, middle, right = {}, {}, {}
    for i in range(n):
        for j in range(n):
            lm = [[Fraction(0)] * n for _ in range(n)]
            mm = [[Fraction(0)] * n for _ in range(n)]
            rm = [[Fraction(0)] * n for _ in range(n)]
            for e in range(n):
                for mat, vec in (
                    (lm, alg.value(i, j, e)),
                    (mm, alg.value(i, e, j)),
                    (rm, alg.value(e, i, j)),
                ):
                    if vec is None:
                        continue
                    factor = 1 if mat is lm else 1 - HALF
                    for r in range(n):
                        mat[r][e] = factor * vec[r]
            for table, mat in ((left, lm), (middle, mm), (right, rm)):
                if any(x for row in mat for x in row):
                    table[key(i, j)] = dense_matrix(mat)
    return {
        "three_leibniz": [
            {"name": "descendent", "space": "H", "brackets": descendent_brackets(alg)}
        ],
        "three_leibniz_reps": [
            {
                "name": "induced_rep",
                "algebra": "descendent",
                "carrier": "H",
                "left": left,
                "middle": middle,
                "right": right,
            }
        ],
    }


def rng_for(seed, label):
    """An independent stream per document, so documents don't shift each other."""
    return random.Random(f"{seed}:{label}")


def family(seed, label, n, c, entries, dense):
    """A fixed member of the family, written in a basis the seed chooses.

    Returns the canonical algebra, the same algebra in the new basis, and
    the change of basis with its inverse.
    """
    canon = random_nilpotent(rng_for("canonical", label), n, c, entries)
    p, pinv = seeded_basis(rng_for(seed, label), n, dense)
    return canon, canon.transformed(p, pinv), p, pinv
