"""Exception hierarchy shared by all modules, and the one check that an
argument is an int in range."""


def _show(value: int) -> str:
    """value in decimal, or its sign and bit length if int-to-str refuses it."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{abs(value).bit_length()}-bit int>"


class ParameterError(ValueError):
    """An argument is outside the range an operation is defined for."""


def _int_in(name: str, value: int, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ParameterError unless value is an int, not a bool, float or numpy
    integer, with lo <= value <= hi; a bound of None is open."""
    if type(value) is not int or (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = "" if lo is None and hi is None else f" in {'' if lo is None else lo}..{'' if hi is None else hi}"
        kind = "" if type(value) is int else f" ({type(value).__name__})"
        raise ParameterError(f"{name} must be an int{bounds}, got {_show(value)}{kind}")


class RangeError(ParameterError):
    """An index exceeds a precomputed table's limit, or a rect coordinate is
    outside the int64 sweep kernel's bound |v| < 2**61."""


class ContractViolation(ValueError):
    """An operation was called on inputs that break its precondition."""


class ConstructionBroken(RuntimeError):
    """A structural witness that must exist could not be found."""


class MalformedDocument(ValueError):
    """Input bytes are not valid JSON or lack required fields."""


class SchemaVersionMismatch(MalformedDocument):
    """Document declares a schema version this code does not speak."""


class DocumentInvariantError(MalformedDocument):
    """Document parsed but its contents violate a type invariant."""
