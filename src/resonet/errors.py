"""Exception types shared across the package, the text-file reader that
maps an undecodable file onto them, and the JSON type checks of input files."""

import math


class ResonetError(Exception):
    """Base class for package-specific failures."""


class InvalidParameterError(ResonetError, ValueError):
    """A numeric or structural parameter is outside its valid domain."""


class TopologyError(ResonetError, ValueError):
    """Lattice wiring is inconsistent (bad indices, unreachable outputs)."""


class DataFormatError(ResonetError, ValueError):
    """An input file does not conform to the expected schema."""


class ConfigError(ResonetError, ValueError):
    """A configuration file or option set is invalid."""


class PoleError(ResonetError, ArithmeticError):
    """Evaluation requested on (or within guard distance of) an analytic pole."""

    def __init__(self, message: str, omega: float | None = None):
        super().__init__(message)
        self.omega = omega


class NearResonanceError(ResonetError, ArithmeticError):
    """AC system matrix is numerically singular at the requested frequency."""

    def __init__(self, message: str, omega: float | None = None,
                 cond: float | None = None):
        super().__init__(message)
        self.omega = omega
        self.cond = cond


class NumericError(ResonetError, RuntimeError):
    """Time-domain simulation or training diverged."""

    def __init__(self, message: str, step: int | None = None,
                 sample: int | str | None = None):
        super().__init__(message)
        self.step = step
        self.sample = sample


class UndecidableError(ResonetError, RuntimeError):
    """Classification cannot pick a class (e.g. all channel energies zero)."""


def read_text(path) -> str:
    """The contents of the text file at `path`.  A file that is not valid text
    in the locale's encoding is a DataFormatError naming the file and the
    offset of the first bad byte; the whole file is decoded at once, so the
    offset counts from its start."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid {exc.encoding} text: byte "
                              f"{exc.start} ({exc.reason})") from exc


def is_json_int(v) -> bool:
    """Whether a parsed JSON value is an integer (true and false are not)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_json_number(v) -> bool:
    """Whether a parsed JSON value is a finite number (true, false, NaN and
    Infinity are not)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
