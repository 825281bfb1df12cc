"""Exception types shared across the package.

The command line maps these onto its exit codes, listed in full in ``cli``:
invalid input exits 2, a ledger contradiction 3 and an internal fault 4.
"""


class InvalidInput(ValueError):
    """Arguments outside an operation's documented domain."""


class NotAnInteger(InvalidInput, TypeError):
    """An argument that must be an int is not one: invalid input, and a
    TypeError as Python's own integer arguments raise."""


class UnsupportedInput(InvalidInput):
    """Arguments the implementation deliberately refuses rather than guesses
    (gonality coefficient below 3, plane degree below 5, surface invariant
    below the foursecant sweep's minimum)."""


class DomainError(ValueError):
    """A divisor class or curve datum fails a mathematical precondition."""


class PlaneCurveContraction(DomainError):
    """The class is alpha*(C0+L) on the surface with n=1: the unisecant map
    contracts the negative section, the image is a plane curve of degree
    alpha, and the gonality (alpha-1) is not cut out by the ruling."""


class EmbeddingError(DomainError):
    """The unisecant system fails to embed the curve: beta = n with the
    curve meeting the contracted section of the cone."""


class ContradictionError(RuntimeError):
    """Two ledger bounds crossed.

    Carries the index where they crossed and the provenance tags of both
    sides, so the caller can see which two facts disagree.
    """

    def __init__(self, index: int, lo: int, hi: int, lo_tag: str, hi_tag: str):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.lo_tag = lo_tag
        self.hi_tag = hi_tag
        super().__init__(
            f"d_{index}: lower bound {lo} [{lo_tag}] exceeds upper bound {hi} [{hi_tag}]"
        )


def need_int(**values) -> None:
    """Refuse, by name, the first of the arguments that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise NotAnInteger(f"need an integer {name}, got {value!r}")
