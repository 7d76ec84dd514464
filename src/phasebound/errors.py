"""Exception types shared across the package."""


class PhaseboundError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStatistics(PhaseboundError):
    """Photon-number statistics make a required quantity undefined.

    Raised when a Mandel Q denominator (a mean photon number) or a
    correlation denominator (a variance product) vanishes, or when the
    intermode correlation sits exactly at |J| = 1 where the analytic
    optimum formulas are singular.
    """


class SingularComplement(PhaseboundError):
    """Schur complement undefined: complementary diagonal element is
    (numerically) zero while the off-diagonal element is not."""


class NonpositiveInformation(PhaseboundError):
    """A Cramer-Rao bound was requested for information <= 0, +inf or NaN."""


class CutoffTooSmall(PhaseboundError):
    """A truncated Fock-space computation cannot meet its accuracy gate
    at the available cutoff; the oracle refuses rather than silently
    returning truncation-polluted numbers."""


class NonFiniteObjective(PhaseboundError):
    """A bound came out NaN or infinite: the Schur kernel's diagonal or its
    f_pm**2/comp term overflowed, an optimal gamma (two- or single-parameter)
    is out of float range, or the target diagonal at the single-parameter
    gamma is not finite."""

