"""Run artifacts on disk: one header format, one table layout, atomic
writes, one reuse rule.

Every artifact is a text file whose first line is its header,

    # config_hash=<h> seed=<s> [key=value ...]

Every artifact but the verify report is a table: the header, a column
line and comma-separated rows, with ints as decimals, floats as ``%.17g``
(which reads back bit for bit) and strings as they are.  A stage reuses
a cached artifact if and only if its header carries the run's config
hash (and any other field the caller names), so one rule serves every
product, and every artifact a manifest lists embeds the manifest's hash.

Writes go to a temporary file next to the target, which replaces the
target only once it is complete: a write that fails or is interrupted
leaves the previous file, or none, and never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

from .errors import ValidationError


@contextlib.contextmanager
def atomic_write(path):
    """Text file handle whose contents replace ``path`` when the block
    exits normally; on any exception the partial file is removed."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write(path, header: dict, body) -> None:
    """Atomically write the header line for ``header`` followed by the
    lines of ``body`` (strings ending in a newline)."""
    with atomic_write(path) as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
        fh.writelines(body)


def cells(values) -> list:
    """One column's values as the table layout writes them."""
    values = np.asarray(values)
    fmt = "%d" if values.dtype.kind in "biu" else "%s" if values.dtype.kind in "US" else "%.17g"
    return [fmt % v for v in values.tolist()]


def write_table(path, header: dict, columns: dict) -> None:
    """Atomically write ``header`` and the table ``columns`` (name ->
    values); a value that fails to format inside the write leaves no file."""

    def body():
        yield ",".join(columns) + "\n"
        yield from (",".join(row) + "\n" for row in zip(*map(cells, columns.values())))

    write(path, header, body())


def read_table(path, columns: dict, fields: dict | None = None) -> tuple:
    """(header fields, name -> array) of the table whose column line names
    ``columns`` (name -> float, int or str) in order, else ValidationError.
    The header must carry the ``fields`` (name -> float, int, str, floats,
    pair or pairs), which come back converted; the other header fields
    come back as strings."""
    with open(path) as fh:
        header = _parse_header(fh.readline())
        line = fh.readline().rstrip("\n")
        rows = fh.readlines()
    for name, kind in (fields or {}).items():
        if name not in header:
            raise ValidationError(f"{path}: header field {name} missing")
        try:
            header[name] = kind(header[name])
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed header field {name}={header[name]}: {exc}") from exc
    if line != ",".join(columns):
        raise ValidationError(f"{path}: column line {line!r}, expected {','.join(columns)!r}")
    dtype = [(name, object if kind is str else kind) for name, kind in columns.items()]
    try:  # loadtxt warns on no rows
        data = np.loadtxt(rows, dtype, comments=None, delimiter=",", ndmin=1) if rows else np.empty(0, dtype)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed row: {exc}") from exc
    return header, {name: np.ascontiguousarray(data[name]) for name in columns}


def floats(text: str) -> tuple:
    """A header field of comma-separated floats, possibly none."""
    return tuple(float(v) for v in text.split(",") if v)


def pairs(text: str) -> tuple:
    """A header field of comma-separated floats, taken two at a time."""
    values = floats(text)
    if len(values) % 2:
        raise ValueError(f"an odd count of values ({len(values)})")
    return tuple(zip(values[0::2], values[1::2]))


def pair(text: str) -> tuple:
    """A header field of exactly two comma-separated floats."""
    values = pairs(text)
    if len(values) != 1:
        raise ValueError(f"expected 2 values, got {2 * len(values)}")
    return values[0]


def _parse_header(line: str) -> dict:
    if not line.startswith("#"):
        return {}
    return dict(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)


def read_header(path) -> dict:
    """key -> value of the header line (empty when the file has none)."""
    with open(path) as fh:
        return _parse_header(fh.readline())


def is_current(path, config_hash: str, **expected) -> bool:
    """The reuse rule: the artifact exists and its header carries
    config_hash and every ``expected`` field."""
    return os.path.exists(path) and dict(expected, config_hash=config_hash).items() <= read_header(path).items()
