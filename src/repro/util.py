"""Dependency-free helpers shared across the package.

Currently just the atomic-write discipline: every byte that lands under a
final name in the session cache or the distribution work dir must be
written to a temp file first and renamed into place, so a crashed writer
can never leave a torn file where a reader expects a complete one. The
``repro lint`` WIRE001 rule (:mod:`repro.analysis.lint`) enforces that
this module is the *only* place the raw ``mkstemp`` + ``os.replace``
idiom lives.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, BinaryIO, Callable

__all__ = ["atomic_write", "atomic_pickle"]


def atomic_write(
    path: str,
    write: Callable[[BinaryIO], None],
    prefix: str = ".atomic.",
    suffix: str = ".tmp",
) -> None:
    """Write a binary file via ``mkstemp`` + ``os.replace``.

    ``write`` receives the open temp-file handle; once it returns, the temp
    file is atomically renamed over ``path``. On any failure the temp file
    is removed, so no reader — concurrent worker, coordinator, or a later
    run — ever observes a half-written file under the final name. The temp
    file is created in ``path``'s directory, keeping the final rename on
    one filesystem (cross-device renames are not atomic).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_pickle(
    path: str,
    payload: Any,
    prefix: str = ".atomic.",
    suffix: str = ".tmp",
) -> None:
    """Pickle ``payload`` to ``path`` atomically (highest protocol).

    The one sanctioned way to put a pickle under a final name (the session
    cache routes through here; the work-dir transport writes
    already-pickled wire bytes through :func:`atomic_write`).
    """
    atomic_write(
        path,
        lambda handle: pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL),
        prefix=prefix,
        suffix=suffix,
    )
