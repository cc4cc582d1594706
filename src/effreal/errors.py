"""Exception hierarchy shared by the kernel modules.

Checking failures carry a ``path``: the chain of premise positions from the
root of a derivation down to the offending node, so errors in serialized
proofs can be located.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for every failure raised by the kernel."""

    def __init__(self, message: str, path: tuple[int, ...] | None = None):
        self.message = message
        self.path = path
        super().__init__(self._render())

    def _render(self) -> str:
        if self.path is not None:
            loc = "/".join(str(i) for i in self.path) or "root"
            return f"[at {loc}] {self.message}"
        return self.message


class UnboundVariable(KernelError):
    pass


class SortMismatch(KernelError):
    pass


class IllFormedBody(KernelError):
    pass


class KindMismatch(KernelError):
    pass


class UnboundTypeVariable(UnboundVariable):
    pass


class TypeMismatch(KernelError):
    pass


class IndexMismatch(KernelError):
    pass


class SpecIllFormed(KernelError):
    pass


class IllTyped(KernelError):
    pass


class IllSorted(KernelError):
    pass


class RuleMismatch(KernelError):
    pass


class ReductionMismatch(KernelError):
    pass


class FuelExhausted(KernelError):
    """A bounded reduction (``effhol.reduction.run``) ran out of fuel:
    ``no normal form within N steps under S``."""


class LemmaViolation(KernelError):
    pass


class TemplateMissing(KernelError):
    pass


class RecheckFailed(KernelError):
    pass


class CandidateRejected(KernelError):
    pass


class SurfaceSyntaxError(KernelError):
    """Parse failure; carries a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ShadowWarning(UserWarning):
    """A binder named like an enclosing one of its namespace, which its
    variables then resolve to; carries the binder's 1-based source
    position."""

    def __init__(self, name: str, line: int, col: int):
        self.line = line
        self.col = col
        self.text = f"binder {name!r} shadows an outer binder; resolving to the nearest"
        super().__init__(f"{line}:{col}: {self.text}")


class ScopeError(KernelError):
    pass
