"""Exception types shared across the package, and the file formats that map
bad input onto them.

Every text file resonet reads goes through ``read_text``, which turns an
undecodable file into a DataFormatError naming it.  Every JSON file goes
through ``read_json`` and is then checked by ``check_fields`` against a
``{key: kind}`` table of its reader: a missing key, a key the table does not
declare, or a value of another JSON type raises the reader's error type,
naming the file and the key.  Every JSON artifact is written by
``write_json`` in one format (indent 1, sorted keys, a trailing newline), and
nothing is overwritten unless asked (``refuse_overwrite``).
"""

import json
import math
from pathlib import Path


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


def read_json(path):
    """The JSON document in the text file at `path`; a file that does not
    decode or parse is a DataFormatError naming it."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(is_json_number, v))


def _pair(v) -> bool:
    return _numbers(v) and len(v) == 2


def _positive(v) -> bool:
    return is_json_number(v) and v > 0


# what each kind of field holds, as (description, predicate on the parsed
# JSON value); a kind is named by the annotation of the value it is read
# into, with "> 0" for element values and scales
JSON_KINDS = {
    "int": ("an integer", is_json_int),
    "float": ("a finite number", is_json_number),
    "float > 0": ("a finite number > 0", _positive),
    "float | nan": ("a number or NaN",
                    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "float | None": ("a finite number or null", lambda v: v is None or is_json_number(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "dict": ("a JSON object", lambda v: isinstance(v, dict)),
    "list[int]": ("a list of integers",
                  lambda v: isinstance(v, list) and all(map(is_json_int, v))),
    "tuple[float, ...]": ("a list of finite numbers", _numbers),
    "tuple[float > 0, ...]": ("a list of finite numbers > 0",
                              lambda v: isinstance(v, list) and all(map(_positive, v))),
    "tuple[float, float]": ("a pair of finite numbers", _pair),
    "tuple[float, float] | None": ("a pair of finite numbers or null",
                                   lambda v: v is None or _pair(v)),
}


def check_fields(doc, kinds: dict, source, prefix: str = "", optional=(),
                 error: type = DataFormatError) -> dict:
    """`doc`, checked to be a JSON object whose keys are those of `kinds`
    ({key: kind}; the keys in `optional` may be left out) and whose values
    are of their key's kind: a name in JSON_KINDS or a (description,
    predicate) pair.  A failure raises `error` naming `source` (the file)
    and the key, written `prefix + key` (e.g. "adam.t")."""
    if not isinstance(doc, dict):
        where = f" at {prefix[:-1]!r}" if prefix else ""
        raise error(f"{source}: expected a JSON object{where}, got {doc!r:.60}")
    for key, value in doc.items():
        if key not in kinds:
            raise error(f"{source}: unknown key {prefix + key!r}; expected one of "
                        f"{sorted(kinds)}")
        kind = kinds[key]
        what, ok = JSON_KINDS[kind] if isinstance(kind, str) else kind
        if not ok(value):
            raise error(f"{source}: {prefix + key!r} must be {what}, got {value!r:.60}")
    for key in kinds:
        if key not in doc and key not in optional:
            raise error(f"{source}: missing key {prefix + key!r}")
    return doc


def refuse_overwrite(paths, force: bool) -> None:
    """ConfigError, unless `force` is set, if any of `paths` exists."""
    for path in paths:
        if not force and Path(path).exists():
            raise ConfigError(f"{path} already exists; pass --force to overwrite")


def json_text(doc) -> str:
    """`doc` in the artifact format: indent 1, sorted keys, repr floats and a
    trailing newline, so equal documents are equal bytes."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_json(path, doc, force: bool) -> Path:
    """Write `doc` to `path` as json_text, making its directory; an existing
    file is a ConfigError unless `force` is set.  Returns the path."""
    path = Path(path)
    refuse_overwrite([path], force)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json_text(doc))
    return path
