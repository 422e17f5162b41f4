"""Exception hierarchy shared by all modules."""


def _show(value: int) -> str:
    """value in decimal, or its sign and bit length if int-to-str refuses it."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{abs(value).bit_length()}-bit int>"


class ParameterError(ValueError):
    """An argument is outside the range an operation is defined for."""


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
