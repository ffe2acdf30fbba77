"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument is outside its documented domain."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size cap."""


def quoted(text: str) -> str:
    """A refusal's echo of `text`: its repr, or its first 40 characters' and `...`."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def clipped(value) -> str:
    """A refusal's bare echo of a number, or of text: `str(value)`, or its
    first 40 characters and `...`."""
    text = str(value)
    return text if len(text) <= 40 else f"{text[:40]}..."


def check_cap(m: int, cap: int, what: str) -> None:
    """Refuse m beyond `cap`, before any work, in the one cap message."""
    if m > cap:
        raise ResourceLimitError(f"m={clipped(m)} exceeds the {what} cap {cap}")


def check_ints(**named) -> None:
    """Refuse a named value that is not an int: `NAME must be an integer`."""
    for name, value in named.items():
        if type(value) is not int:  # a bool is an int, but not a size
            raise InputError(f"{name} must be an integer, got {value}")


def check_min(m: int, least: int) -> None:
    """Refuse an m that is not an int, or is below `least`, each in its one
    message."""
    check_ints(m=m)
    if m < least:
        raise InputError(f"m must be >= {least}, got {clipped(m)}")


class InfeasibilityError(ValueError):
    """The requested combinatorial object does not exist."""


class StructureError(ValueError):
    """An edge set lacks the structure the operation relies on."""


# What a CLI command reports on one `error:` line, with exit status 1.
DOMAIN_ERRORS = (InputError, InfeasibilityError, StructureError, ResourceLimitError)
