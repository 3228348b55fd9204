"""Exception hierarchy shared by all modules."""


class MatchfieldError(Exception):
    """Base class for all library errors."""


class SizeCapError(MatchfieldError):
    """An input exceeds the hard size cap of an enumerative operation."""


class NotASpanningTreeError(MatchfieldError):
    """A graph expected to be a (spanning) tree is not one."""


class FieldValidationError(MatchfieldError):
    """A candidate matching/tope field violates a structural invariant."""

    def __init__(self, kind, sigma, message):
        super().__init__(message)
        self.kind = kind
        self.sigma = sigma


class MissingSubsetError(FieldValidationError):
    def __init__(self, sigma):
        super().__init__("missing-subset", sigma, f"no entry for subset {sigma}")


class NotAMatchingError(FieldValidationError):
    def __init__(self, sigma, message=None):
        super().__init__(
            "not-a-matching", sigma, message or f"value for {sigma} is not a perfect matching"
        )


class WrongSupportError(FieldValidationError):
    def __init__(self, sigma, support):
        super().__init__(
            "wrong-support", sigma, f"value for {sigma} has left support {support}"
        )


class TiedMinimumError(MatchfieldError):
    """Two optimal assignments share the minimal weight; the matrix is not generic."""

    def __init__(self, sigma, first, second):
        super().__init__(f"tied minimum on subset {sigma}")
        self.sigma = sigma
        self.first = first
        self.second = second


class NotLinkageError(MatchfieldError):
    """A union of matchings/topes over a subset contains a cycle."""

    def __init__(self, tau, cycle=None):
        super().__init__(f"union over {tau} is not a tree")
        self.tau = tau
        self.cycle = cycle


class InconsistentPhiError(MatchfieldError):
    """A degree-vector bijection does not come from any linkage field."""


class InconsistentPairsError(MatchfieldError):
    """A degree-pair set does not come from any triangulation."""


class InconsistentCollectionError(MatchfieldError):
    """A candidate covector collection violates a structural invariant."""
