"""Exception types shared across the package."""


class ParseError(ValueError):
    """Instance or trace file could not be parsed."""


class NoPerfectMatching(Exception):
    """The graph admits no perfect matching (or n is odd / zero)."""


class LaminarityViolation(ValueError):
    """A set insertion would properly cross an existing family member."""


class LPInfeasible(Exception):
    """The linear program has no feasible solution."""


class LPUnbounded(Exception):
    """The linear program is unbounded (internal error for our programs)."""


class StructureViolation(Exception):
    """A structural invariant guaranteed by the method was violated.

    Either a bug or a counterexample; carries a witness payload when
    available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidConfiguration(StructureViolation):
    """Input to the half-integral matching procedure fails (A)/(B)/(C): the
    driver built it, so an invariant broke."""


class StalledNoEpsilon(Exception):
    """Dual adjustment is unbounded: the constrained relaxation is infeasible."""


class GenerationFailed(Exception):
    """Random instance generation exhausted its retry budget."""


class SchemaMismatch(ValueError):
    """Trace file does not match the expected schema or instance."""
