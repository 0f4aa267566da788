"""Run artifacts on disk: one header format, atomic writes, one reuse rule.

Every artifact is a text file whose first line is its header,

    # config_hash=<h> seed=<s> [key=value ...]

followed by the artifact's body (a column header and rows for the CSVs).
A stage reuses a cached artifact if and only if that header carries the
run's config hash, so one key serves samples, spectra (the spectrum
stage's and the verify stage's), the density-of-states cache and the
curve model alike, and every artifact a manifest lists embeds the
manifest's hash.

Writes go to a temporary file next to the target, which replaces the
target only once it is complete: a write that fails or is interrupted
leaves the previous file, or none, and never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import threading


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


def _parse_header(line: str) -> dict:
    if not line.startswith("#"):
        return {}
    return dict(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)


def read_header(path) -> dict:
    """key -> value of the header line (empty when the file has none)."""
    with open(path) as fh:
        return _parse_header(fh.readline())


def read(path) -> tuple:
    """(header fields, body lines) of an artifact."""
    with open(path) as fh:
        header = _parse_header(fh.readline())
        return header, fh.readlines()


def is_current(path, config_hash: str) -> bool:
    """The reuse rule: the artifact exists and its header carries config_hash."""
    return os.path.exists(path) and read_header(path).get("config_hash") == config_hash
