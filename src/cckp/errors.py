"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for engine failures."""


class DepthExhausted(EngineError):
    """A computation needs operator coefficients below the trusted depth."""


class NegativeOrderApplication(EngineError):
    """A purely integral operator was applied as if it were differential."""


class OddScaleResidue(EngineError):
    """A scaling substitution left an odd power of the formal scale constant."""


class NestingTooDeep(EngineError):
    """An antiderivative would exceed the atom nesting limit."""


class ResidualNonlocal(EngineError):
    """Nonlocal atoms failed to cancel where a local result is required."""


class GrammarError(EngineError, ValueError):
    """Malformed textual or JSON expression input."""
