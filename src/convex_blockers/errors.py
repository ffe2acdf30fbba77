"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument is outside its documented domain."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap."""


def check_cap(m: int, cap: int, what: str) -> None:
    """Refuse m beyond `cap`, before any work, in the one cap message."""
    if m > cap:
        raise ResourceLimitError(f"m={m} exceeds the {what} cap {cap}")


class InfeasibilityError(ValueError):
    """The requested combinatorial object does not exist."""


class StructureError(ValueError):
    """An edge set lacks the structure the operation relies on."""
