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


def require_int(value, name: str, low: int | None = None) -> None:
    """Refuse a bool, any other non-int, and an int below `low`.

    Depths, orders, powers and flow indices are counts for `range` and keys
    of memo tables, where `True` or `3.0` would pass for 1 or 3.
    """
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an int{bound}, not {value!r}")
