"""Exceptions shared across the package.

Exit-status contract for the CLI: pass = 0, fail = 1, InputError = 2,
PreconditionError (refused) = 3.
"""

# The one work budget. `cohomology` refuses a differential whose work
# estimate exceeds it, and `schema` a space whose dimension does. On a
# 2-vCPU Xeon with Python 3.11, degree 4 of the dim-4 example (about
# 70 000) takes 0.04 s to assemble and 0.2 s of rank, and degree 1 of a
# sparse dim-26 net (about 230 000) fits too; degree 5 of the example
# (about 530 000) would take 0.4 s to assemble, 6 s of rank and 130 MB.
_WORK_BUDGET = 400_000


class InputError(Exception):
    """Malformed input: bad file, bad rational, dimension mismatch, unknown name."""


class PreconditionError(Exception):
    """A guarded construction or check refused to run; carries the gate report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
