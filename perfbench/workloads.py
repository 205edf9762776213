"""The three workloads: documents, command lists and the answer to each command.

``build(name, seed, workdir, fixtures)`` writes the workload's documents into
``workdir`` and returns its commands.  A command is a ``Command``: the CLI
arguments after ``python -m tensorforge`` and what the answer must be.  No
answer comes from running tensorforge: exit statuses hold by construction
(see ``gen``), failure counts follow from the bracket's support, and the
cohomology and classification rows are the basis-independent values pinned
in ``pins.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from math import comb

import gen

PINS = json.loads(
    open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")).read()
)

NAMES = ("verify-sparse", "verify-dense", "cohomology")


@dataclass
class Command:
    """One CLI invocation and its known answer.

    ``lines`` maps a report line's name to ``(checked, failures)``; a failure
    count of ``None`` means "at least one".  ``kind`` picks how the output is
    read: a text or JSON ``report``, an emitted ``document``, a
    ``cohomology`` table or a ``classify`` result.
    """

    argv: list
    exit: int
    kind: str = "report"
    lines: dict = field(default_factory=dict)
    expect: object = None


# --- answers shared by the families ---------------------------------------------------
#
# An alternating bracket is nonzero on exactly 6 ordered triples per nonzero
# increasing entry: that is where the `6 * len(brackets)` failure counts of
# the all-triples laws come from.


def fi_lines(n, failures=0):
    return {"fundamental identity": (comb(n, 2) * comb(n, 3), failures)}


def rep_lines(n):
    return {
        "action fundamental law": (n**4, 0),
        "action commutator law": (n**4, 0),
    }


def action_lines(n):
    pairs = comb(n, 2) * n**3
    return {"derivation law": (pairs, 0), "annihilation law": (pairs, 0)}


def net_lines(n, failures, mode="all"):
    checked = n**3 if mode == "all" else comb(n, 3)
    return {"embedding-tensor condition": (checked, failures)}


def higher_order_lines(n, second):
    return {
        "first-order tensor condition": (n**3, 0),
        "higher order: second-order condition": (n**3, second),
        "higher order: third-order condition": (n**3, 0),
    }


def directions(n):
    zero = [[0] * n for _ in range(n)]
    # The identity direction is a first-order deformation of the family, and
    # its second-order residual is (1/2)[u, v, w]: it fails exactly where the
    # bracket is nonzero, in every basis.  Conjugating it leaves it the identity.
    return [("d_zero", zero), ("d_identity", gen.identity(n))]


def write(workdir, name, doc):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return path


# --- verify-sparse --------------------------------------------------------------------


def verify_sparse(seed, workdir, fixtures):
    cmds = []
    for n, c, entries, full in ((5, 1, 3, True), (6, 2, 4, False), (7, 2, 6, False)):
        _, alg, p, pinv = gen.family(seed, f"sparse{n}", n, c, entries, dense=False)
        tensor = gen.conjugate(pinv, gen.central_tensor(n, c, gen.HALF), p)
        structures = gen.net_structures(alg, tensor, directions=directions(n))
        structures.update(gen.induced_rep_structures(alg))
        path = write(workdir, f"sparse{n}", gen.document(f"sparse nilpotent, dim {n}", n, structures))
        # dim 7 is check-3lie only and dim 6 has no check-net, to keep a
        # pass short enough for two of them in a run
        cmds.append(Command(["check-3lie", path], 0, lines=fi_lines(n)))
        if n == 7:
            continue
        cmds.append(Command(["check-rep", path], 0, lines=rep_lines(n)))
        if not full:
            continue
        cmds += [
            Command(["check-net", path], 0, lines=net_lines(n, 0)),
            Command(["check-action", path], 0, lines=action_lines(n)),
            Command(
                ["check-net", path, "--triples", "increasing"],
                0,
                lines=net_lines(n, 0, "increasing"),
            ),
            Command(["graph-check", path], 0, lines={"graph closure": (n**3, 0)}),
            Command(["check-rep-3leibniz", path], 0),
            Command(
                ["deform-check", path, "--higher-order", "--name", "d_identity"],
                1,
                lines=higher_order_lines(n, 6 * len(alg.brackets)),
            ),
        ]
    for n, entries in ((10, 4), (12, 5)):
        _, alg, _, _ = gen.family(seed, f"bracket{n}", n, 2, entries, dense=False)
        doc = gen.document(
            f"sparse bracket, dim {n}", n, {"three_lie": [gen.three_lie_entry(alg)]}
        )
        path = write(workdir, f"bracket{n}", doc)
        cmds.append(Command(["check-3lie", path], 0, lines=fi_lines(n)))
    return cmds


# --- verify-dense ---------------------------------------------------------------------

DENSE = ["--json", "--all-witnesses"]

BROKEN_FIXTURES = [
    ("check-3lie", "broken_3lie.json", ()),
    ("check-3leibniz", "broken_3leibniz.json", ()),
    ("check-lie", "broken_lie.json", ()),
    ("check-leibniz-lie", "broken_leibniz_lie.json", ()),
    ("check-3ll", "broken_3ll.json", ()),
    ("check-rep", "broken_rep.json", ()),
    ("check-action", "broken_action.json", ()),
    ("check-rep-3leibniz", "broken_rep3.json", ()),
    ("check-trace", "broken_trace.json", ()),
    ("check-net", "broken_net.json", ()),
]

# builder, input (None: the generated dim-4 document), kinds it must emit
BUILDERS = [
    ("hemisemidirect", None, {"three_leibniz"}),
    ("descendent", None, {"three_leibniz"}),
    ("induce-3ll", None, {"three_lie", "three_leibniz_lie"}),
    ("induced-rep", None, {"three_leibniz", "three_leibniz_reps"}),
    ("emit", None, {"three_lie", "representations", "actions", "nets", "deformations"}),
    ("lie-to-3lie", "heisenberg_e4.json", {"three_lie"}),
    ("rho-sigma", "heisenberg_e4.json", {"three_lie", "representations", "actions"}),
    ("lift-net", "heisenberg_e4.json", {"three_lie", "representations", "actions", "nets"}),
    ("leibnizlie-to-3ll", "leibniz_lie_e3.json", {"three_lie", "three_leibniz_lie"}),
]


def dense_net(alg, c, p, pinv, scale, operators=None):
    n = alg.n
    tensor = gen.conjugate(pinv, gen.central_tensor(n, c, scale), p)
    return gen.net_structures(alg, tensor, operators=operators, directions=directions(n))


def perturbed_bracket(canon):
    """Add [e_a, e_b, e_m] = e_a for an entry (a, b, c) and the last basis vector m.

    With D = [e_b, e_m, -]: D e_a = e_a, while D kills e_b, e_c and the
    centre, so D[e_a, e_b, e_c] = 0 but [D e_a, e_b, e_c] = [e_a, e_b, e_c]
    is nonzero.  The fundamental identity fails, in every basis; every
    command gated on it refuses.
    """
    n = canon.n
    a, b, _ = min(canon.brackets)
    brackets = dict(canon.brackets)
    vec = [0] * n
    vec[a] = 1
    brackets[(a, b, n - 1)] = [gen.Fraction(x) for x in vec]
    return gen.Nilpotent(n, brackets)


def perturbed_operator(canon, p, pinv):
    """rho + alpha(u, v) E with E: e_q -> e_m, alpha the (e_a ^ e_b) coefficient.

    For an entry (a, b, q) and the last basis vector m.  Every operator
    still maps into the centre and kills it, so all composition products
    vanish and the representation and coherence laws still hold.  The
    tensor condition gains -T(alpha(u, v) E w) = -(1/2) alpha(u, v) w_q e_m,
    so in the basis f the failing ordered triples are the (i, j, k) with
    alpha(f_i, f_j) != 0 and (f_k)_q != 0.
    """
    n = canon.n
    a, b, q = min(canon.brackets)
    m = n - 1
    e = [[gen.Fraction(0)] * n for _ in range(n)]
    e[m][q] = gen.Fraction(1)
    conj = gen.conjugate(pinv, e, p)
    ops, alpha = {}, {}
    for i in range(n):
        for j in range(n):
            alpha[(i, j)] = p[a][i] * p[b][j] - p[b][i] * p[a][j]
    alg = canon.transformed(p, pinv)
    for i in range(n):
        for j in range(i + 1, n):
            base = alg.operator(i, j)
            ops[(i, j)] = [
                [x + alpha[(i, j)] * y for x, y in zip(row, crow)]
                for row, crow in zip(base, conj)
            ]
    failures = sum(
        1
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if alpha[(i, j)] != 0 and p[q][k] != 0
    )
    return alg, ops, failures


def verify_dense(seed, workdir, fixtures):
    cmds = []
    n, c = 4, 1
    canon, alg, p, pinv = gen.family(seed, "dense4", n, c, 1, dense=True)
    valid = write(workdir, "dense4", gen.document("dense, dim 4", n, dense_net(alg, c, p, pinv, gen.HALF)))
    bracket_entries = len(alg.brackets)
    cmds += [
        Command(["check-3lie", valid, *DENSE], 0, lines=fi_lines(n)),
        Command(["check-rep", valid, *DENSE], 0, lines=rep_lines(n)),
        Command(["check-action", valid, *DENSE], 0, lines=action_lines(n)),
        Command(["check-net", valid, *DENSE], 0, lines=net_lines(n, 0)),
        Command(["deform-check", valid, "--higher-order", "--name", "d_identity", *DENSE], 1,
                lines=higher_order_lines(n, 6 * bracket_entries)),
    ]

    # tensor scale 2 on the centre: fails exactly where the bracket is nonzero
    scaled = write(workdir, "dense4_scale", gen.document(
        "dense, dim 4, tensor scale 2", n, dense_net(alg, c, p, pinv, 2)))
    cmds += [
        Command(["check-net", scaled, *DENSE], 1, lines=net_lines(n, 6 * bracket_entries)),
        Command(["check-net", scaled, "--triples", "increasing", *DENSE], 1,
                lines=net_lines(n, bracket_entries, "increasing")),
        Command(["graph-check", scaled, *DENSE], 1, lines={"graph closure": (n**3, None)}),
    ]

    broken = perturbed_bracket(canon).transformed(p, pinv)
    bad_bracket = write(workdir, "dense4_bracket", gen.document(
        "dense, dim 4, perturbed bracket", n, dense_net(broken, c, p, pinv, gen.HALF)))
    cmds += [
        Command(["check-3lie", bad_bracket, *DENSE], 1, lines=fi_lines(n, None)),
        Command(["check-net", bad_bracket, *DENSE], 3),
    ]

    op_alg, ops, op_failures = perturbed_operator(canon, p, pinv)
    bad_op = write(workdir, "dense4_operator", gen.document(
        "dense, dim 4, perturbed operator", n, dense_net(op_alg, c, p, pinv, gen.HALF, ops)))
    cmds += [
        Command(["check-rep", bad_op, *DENSE], 0, lines=rep_lines(n)),
        Command(["check-net", bad_op, *DENSE], 1, lines=net_lines(n, op_failures)),
    ]

    n5, c5 = 5, 1
    _, alg5, p5, pinv5 = gen.family(seed, "dense5", n5, c5, 3, dense=True)
    scaled5 = write(workdir, "dense5_scale", gen.document(
        "dense, dim 5, tensor scale 2", n5, dense_net(alg5, c5, p5, pinv5, 2)))
    cmds.append(Command(["check-net", scaled5, *DENSE], 1,
                        lines=net_lines(n5, 6 * len(alg5.brackets))))

    n6 = 6
    _, alg6, _, _ = gen.family(seed, "dense6", n6, 2, 4, dense=True)
    bracket6 = write(workdir, "dense6_bracket", gen.document(
        "dense bracket, dim 6", n6, {"three_lie": [gen.three_lie_entry(alg6)]}))
    cmds.append(Command(["check-3lie", bracket6, *DENSE], 0, lines=fi_lines(n6)))

    for command, fixture, extra in BROKEN_FIXTURES:
        cmds.append(Command([command, os.path.join(fixtures, fixture), *extra, *DENSE], 1))
    for command, fixture, kinds in BUILDERS:
        source = valid if fixture is None else os.path.join(fixtures, fixture)
        expect = {"kinds": sorted(kinds)}
        if command == "descendent":
            expect["brackets"] = gen.descendent_brackets(alg)
        cmds.append(Command([command, source], 0, kind="document", expect=expect))
    return cmds


# --- cohomology -----------------------------------------------------------------------


def pinned_algebra(name):
    spec = PINS["algebras"][name]
    n = spec["dim"]
    brackets = {}
    for raw, value in spec["brackets"].items():
        idx = tuple(int(x) - 1 for x in raw.split(","))
        vec = [gen.Fraction(0)] * n
        for comp, coef in value.items():
            vec[int(comp) - 1] = gen.Fraction(coef)
        brackets[idx] = vec
    return gen.Nilpotent(n, brackets), spec["centre"]


def pinned_document(name, rng, dense, with_directions=False):
    """A pinned algebra with its valid tensor, in a basis ``rng`` chooses.

    See ``gen.seeded_basis``.  Cohomology and classification dimensions do
    not depend on the basis, so the pinned rows hold for every seed.
    """
    canon, c = pinned_algebra(name)
    n = canon.n
    p, pinv = gen.seeded_basis(rng, n, dense)
    alg = canon.transformed(p, pinv)
    tensor = gen.conjugate(pinv, gen.central_tensor(n, c, gen.HALF), p)
    dirs = None
    if with_directions:
        dirs = [
            (label, gen.conjugate(pinv, [[gen.Fraction(x) for x in row] for row in d], p))
            for label, d in sorted(PINS["directions"].items())
        ]
    return gen.document(f"{name} in a random basis", n, gen.net_structures(alg, tensor, directions=dirs))


def cohomology(seed, workdir, fixtures):
    rng = gen.rng_for(seed, "cohomology")
    cmds = []
    for name, dense in (("example_2_8", False), ("example_2_8", True), ("nil5", False)):
        label = f"{name}_{'dense' if dense else 'sparse'}"
        path = write(workdir, label, pinned_document(name, rng, dense))
        cmds.append(Command(
            ["cohomology", path, "--degrees", "1,2", "--json"], 0,
            kind="cohomology", expect=PINS["cohomology"][name],
        ))
    for name, dense in (("example_2_8", False), ("nil5", True)):
        label = f"{name}_{'dense' if dense else 'sparse'}_classify"
        path = write(workdir, label, pinned_document(name, rng, dense))
        cmds.append(Command(["classify", path, "--json"], 0, kind="classify",
                            expect=PINS["classify"][name]))
    path = write(workdir, "example_2_8_directions",
                 pinned_document("example_2_8", rng, True, with_directions=True))
    # the one inequivalent pair and the one nontrivial direction: the other
    # pins cost the same work and would only lengthen the pass
    for first, second, status in PINS["equivalences"]:
        if first == "d_cocycle":
            cmds.append(Command(["deform-equiv", path, "--first", first, "--second", second], status))
    cmds.append(Command(["deform-check", path, "--name", "d_cocycle"], 0))
    return cmds


BUILDERS_BY_NAME = {
    "verify-sparse": verify_sparse,
    "verify-dense": verify_dense,
    "cohomology": cohomology,
}


def build(name, seed, workdir, fixtures):
    return BUILDERS_BY_NAME[name](seed, workdir, fixtures)
