"""Artifact files written whole or not at all, and refused by name when
they do not parse.  write_lines is genil's one way to write a file: every
artifact writer formats its lines and hands them over."""

from __future__ import annotations

import contextlib
import os

from .errors import ConfigError, CorruptArtifactError, InvalidTrajectoryError


def write_lines(path, lines) -> None:
    """Write each of lines (any iterable of str, consumed as it is written)
    and a "\\n" after it to a temporary file in path's directory, which
    replaces path after the last line.  If producing or writing a line
    raises, the temporary file is removed and path is left as it was, so a
    failed write leaves no truncated artifact."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def parsing(path):
    """Turn what a malformed artifact raises while the block parses it
    (invalid JSON, a missing field, a value of the wrong type or shape, an
    integer too large for a float, a ConfigError or an
    InvalidTrajectoryError from what the file holds) into a
    CorruptArtifactError that names path."""
    try:
        yield
    except (ConfigError, InvalidTrajectoryError) as exc:
        raise CorruptArtifactError(f"malformed artifact {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CorruptArtifactError(
            f"malformed artifact {path}: {type(exc).__name__}: {exc}"
        ) from exc
