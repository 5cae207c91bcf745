"""Exception types shared across the package."""


class DetEquivError(Exception):
    """Base class for every library-specific error."""


class FieldMismatch(DetEquivError):
    """Two objects built over different fields were combined."""


class LabelMismatch(DetEquivError):
    """Two objects with different point labels were combined."""


class NotEquivalent(DetEquivError):
    """The two kernels disagree on some principal minor.

    ``subset`` holds the failing index set; ``minor_k`` / ``minor_q`` the two
    minor values when the refutation came from a determinant comparison.
    """

    def __init__(self, message, *, subset, minor_k=None, minor_q=None):
        super().__init__(message)
        self.subset = tuple(subset)
        self.minor_k = minor_k
        self.minor_q = minor_q


class ClassDViolation(DetEquivError):
    """A kernel fails the all-cross-minors-nonzero condition.

    ``kernel_role`` is "first" or "second"; ``witness`` the offending ordered
    quadruple of indices.
    """

    def __init__(self, message, *, kernel_role, witness):
        super().__init__(message)
        self.kernel_role = kernel_role
        self.witness = tuple(witness)


class MixedCases(DetEquivError):
    """Some 3-cycles only match directly and others only after reversal."""

    def __init__(self, message, *, direct_cycle, flipped_cycle):
        super().__init__(message)
        self.direct_cycle = direct_cycle
        self.flipped_cycle = flipped_cycle


class BranchUnavailable(DetEquivError):
    """A ratio-table branch needed a nonzero entry that is zero.

    Signals corrupted preconditions: with both kernels validated this
    cannot happen.
    """

    def __init__(self, message, *, pair):
        super().__init__(message)
        self.pair = tuple(pair)


class NotRecoverable(DetEquivError):
    """Small kernels only: equivalent, but no diagonal transform exists."""


class VerificationFailed(DetEquivError):
    """No transform fits two kernels that the rigidity theorem says are
    related: both have property D and agree on every principal minor.

    Indicates an internal bug, never bad input: the command line exits 3.
    """


class GenerationBudgetExceeded(DetEquivError):
    """Rejection sampling ran out of attempts (field too small for this n)."""

    def __init__(self, message, *, attempts):
        super().__init__(message)
        self.attempts = attempts
