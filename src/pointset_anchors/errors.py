"""Exception types, and the checks of input documents and settings that raise them."""


class PointSetError(ValueError):
    """The error of any input or setting this library rejects; the message names which."""


class MalformedDocumentError(PointSetError):
    """An input document (annotations, config, pose modes) is invalid; message names the field."""


# The largest magnitude of an input number or anchor coordinate: sums and differences
# of a few stay below 2**503, so squares, areas and sums of squares stay finite.
MAX_MAGNITUDE = 2.0 ** 500

# The longest value or key list text a field error quotes; a longer is cut to end in "...".
MAX_VALUE_TEXT = 60


def is_numbers(value, length=None) -> bool:
    """Whether ``value`` is a list of numbers (bools excluded), of ``length`` when given."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(type(v) in (int, float) for v in value))


def check_at_least(*settings) -> None:
    """Name the first (name, value, least) setting whose value is below its least."""
    for name, value, least in settings:
        if value < least:
            raise PointSetError(f"{name} must be >= {least}, got {value}")


def check_fields(data: dict, fields: dict, context: str) -> None:
    """Reject keys not in ``fields``, then name the first value failing its (predicate, kind);
    a value its predicate cannot read (a ragged list, an int too large for a float) fails it."""
    unknown = sorted(set(data) - set(fields), key=str)   # a YAML key may be a number
    if unknown:
        raise MalformedDocumentError(f"{context}: unknown config keys: {_cut(unknown)}")
    for key, (check, kind) in fields.items():
        try:
            ok = key not in data or check(data[key])
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise MalformedDocumentError(
                f"{context}: {key!r} must be {kind}, got {_cut(data[key])}")


def _cut(value) -> str:
    """``repr(value)``, cut to ``MAX_VALUE_TEXT`` characters ending in "..." when longer."""
    text = repr(value)
    return text if len(text) <= MAX_VALUE_TEXT else text[:MAX_VALUE_TEXT - 3] + "..."
