"""Exact structure-constant computations for ternary algebras.

The package represents finite-dimensional ternary (and binary) algebras,
coherent actions, and embedding tensors over exact rationals; verifies
every defining law with explicit failing witnesses; constructs the derived
structures (combined, descendent, and induced brackets, induced
representations, trace lifts); and computes the associated cochain
complex, its cohomology dimensions, and the first-order deformation
classification.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a program pays only
for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, and the module that defines it
_EXPORTS = {
    "NetHomomorphism": "actions",
    "check_coherent_action": "actions",
    "check_net": "actions",
    "check_net_hom": "actions",
    "check_representation": "actions",
    "descendent": "actions",
    "graph_check": "actions",
    "hemisemidirect": "actions",
    "hemisemidirect_table": "actions",
    "induced_3ll": "actions",
    "CoherentActionData": "algebras",
    "Deformation": "algebras",
    "EmbeddingTensorProblem": "algebras",
    "LeibnizLieAlgebra": "algebras",
    "LieAlgebra": "algebras",
    "LieCoherentAction": "algebras",
    "LieNet": "algebras",
    "LinearMap": "algebras",
    "RepresentationData": "algebras",
    "ThreeLeibnizAlgebra": "algebras",
    "ThreeLeibnizLieAlgebra": "algebras",
    "ThreeLeibnizRep": "algebras",
    "ThreeLieAlgebra": "algebras",
    "TraceMap": "algebras",
    "check_3leibniz": "algebras",
    "check_3leibniz_rep": "algebras",
    "check_3lie": "algebras",
    "check_3ll": "algebras",
    "check_hom": "algebras",
    "check_leibniz_lie": "algebras",
    "check_lie": "algebras",
    "subadjacent": "algebras",
    "Cochain": "cohomology",
    "CochainComplex": "cohomology",
    "cohomology_dims": "cohomology",
    "delta0": "cohomology",
    "delta_matrix": "cohomology",
    "induced_rep": "cohomology",
    "pushforward": "cohomology",
    "pushforward_matrix": "cohomology",
    "Classification": "deformations",
    "EquivalenceWitness": "deformations",
    "are_equivalent": "deformations",
    "check_higher_order": "deformations",
    "check_infinitesimal": "deformations",
    "classify": "deformations",
    "InputError": "errors",
    "PreconditionError": "errors",
    "check_lie_coherent": "induced_lie",
    "check_lie_net": "induced_lie",
    "check_trace": "induced_lie",
    "lift_net": "induced_lie",
    "rho_sigma": "induced_lie",
    "three_ll_from_leibniz_lie": "induced_lie",
    "threelie_from_lie": "induced_lie",
    "KERNEL_BACKEND": "linalg",
    "Matrix": "linalg",
    "Vector": "linalg",
    "fmt_rat": "linalg",
    "kernel_basis": "linalg",
    "rank": "linalg",
    "rat": "linalg",
    "solve_membership": "linalg",
    "AlternatingTrilinearTable": "multilinear",
    "PairAction": "multilinear",
    "Space": "multilinear",
    "TrilinearTable": "multilinear",
    "WedgePairBasis": "multilinear",
    "Report": "report",
    "Scope": "report",
    "Document": "schema",
    "emit_document": "schema",
    "load_document": "schema",
    "parse_document": "schema",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
