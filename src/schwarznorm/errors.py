"""Exception types shared across the package."""


class DomainError(ValueError):
    """Evaluation requested outside the open unit disk."""


class CenterMismatchError(ValueError):
    """Jet operands are expanded around different centers."""


class DivisionBySingular(ArithmeticError):
    """A leading series coefficient (typically f') is numerically zero.

    Signals loss of local univalence rather than a mere overflow: callers
    must not fabricate derivative values at such points.
    """


class SearchUnreliable(RuntimeError):
    """Singular points in the norm search: too many on the grid, or one in refinement."""


class GammaDegenerate(ValueError):
    """The normalized second coefficient gamma = |f''(0)|/c is at 1.

    The pointwise Schwarzian bound parameterized by gamma blows up there,
    so the check is reported as degenerate instead of asserted.
    """


# |f'| (or any leading series coefficient) below this is treated as a
# genuine zero rather than roundoff.
SINGULAR_TOL = 1e-13
