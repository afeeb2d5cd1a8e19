"""Exception types, and the checks of input documents and settings that raise them."""


class PointSetError(ValueError):
    """Base class for all errors raised by this library."""


class DegenerateBoxError(PointSetError):
    """Box is malformed (non-finite, min > max) or has no usable extent."""


class TooFewVerticesError(PointSetError):
    """A polygon needs at least 3 vertices."""


class DegenerateContourError(PointSetError):
    """Contour has zero signed area."""


class NonPositiveScaleError(PointSetError):
    """Scale factors must be strictly positive."""


class BadPointCountError(PointSetError):
    """Anchor point count must be a positive multiple of 4."""


class MissingCanonicalPosesError(PointSetError):
    """Pose grid generation needs canonical poses."""


class JointCountMismatchError(PointSetError):
    """Pose arrays must carry exactly NUM_JOINTS joints."""


class NoVisibleJointsError(PointSetError):
    """OKS is undefined for a ground truth with no visible joints."""


class BadThresholdsError(PointSetError):
    """Assignment thresholds must satisfy 0 <= lo <= hi <= 1."""


class LengthMismatchError(PointSetError):
    """Parallel arrays disagree in length."""


class TooFewValidPointsError(PointSetError):
    """Mask construction needs at least 3 valid points."""


class TooFewVisibleJointsError(PointSetError):
    """Pose normalization needs at least 2 visible joints."""


class TooFewPosesError(PointSetError):
    """Clustering needs at least k admissible poses."""


class MalformedDocumentError(PointSetError):
    """An input document (annotations, config, pose modes) is invalid; message names the field."""


class NoApplicableRecordsError(PointSetError):
    """No input record carries the annotations the operation needs."""


# The largest magnitude of an input number or anchor coordinate: sums and differences
# of a few stay below 2**503, so squares, areas and sums of squares stay finite.
MAX_MAGNITUDE = 2.0 ** 500


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
    unknown = set(data) - set(fields)
    if unknown:
        raise MalformedDocumentError(f"{context}: unknown config keys: {sorted(unknown)}")
    for key, (check, kind) in fields.items():
        try:
            ok = key not in data or check(data[key])
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise MalformedDocumentError(f"{context}: {key!r} must be {kind}, got {data[key]!r}")
