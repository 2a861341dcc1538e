"""Exception types raised across the package.

Everything derives from PosetError so callers (notably the CLI) can map
any domain failure to a single exit path.
"""


class PosetError(Exception):
    pass


class DuplicateLabel(PosetError):
    pass


class UnknownLabel(PosetError):
    pass


class CycleDetected(PosetError):
    pass


class NotAntisymmetric(PosetError):
    pass


class NotTransitive(PosetError):
    pass


class NoTopElement(PosetError):
    pass


class NoBottomElement(PosetError):
    pass


class NotPseudocomplemented(PosetError):
    """Some element is missing a pseudocomplement against the bottom."""


class NotPseudocomplementedSections(NotPseudocomplemented):
    """Some section [y,1] is missing a pseudocomplement."""


class NotALattice(PosetError):
    pass


class SizeLimitExceeded(PosetError):
    pass


class OrderAxiomFailure(PosetError):
    """The arrow table of an algebra does not induce a partial order with unit on top."""


class NonSingletonSection(PosetError):
    """An arrow cell that must encode a section pseudocomplement is not a singleton."""


class SectionMismatch(PosetError):
    """Arrow cells disagree with the pseudocomplements recomputed from the induced order."""


class ParseError(PosetError):
    """Syntax error in a poset document, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
