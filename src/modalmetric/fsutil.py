"""Small filesystem helpers shared by checkpointing and the CLI."""

import contextlib
import json
import os
import tempfile

from .errors import ConfigError


def ensure_dir(path):
    """Create directory `path` and its parents unless it exists.

    Raises:
        ConfigError: naming the path, if it cannot be created (say, a
            regular file sits on it or on one of its parents).
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc.strerror or exc}"
        ) from None


@contextlib.contextmanager
def output_dir(path):
    """ensure_dir(path) for a with block, so an unusable path fails before
    any work; if the block raises, remove the directories this created
    that are still empty, and never one that existed before."""
    created = []  # deepest first
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        created.append(head)
        head = os.path.dirname(head)
    ensure_dir(path)
    try:
        yield
    except BaseException:
        for directory in created:
            try:
                os.rmdir(directory)
            except OSError:  # not empty, so neither are its parents
                break
        raise


def atomic_write_text(path, pieces):
    """Write the strings of the iterable `pieces`, in order, to path via
    a temp file + rename so readers never see a partially written
    artifact. If `pieces` raises, the temp file is removed and path is
    left as it was. The file gets the mode `open()` would give it, 0o666
    less the umask, not mkstemp's 0o600.

    Raises:
        ConfigError: naming the path, if it cannot be written.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    ensure_dir(directory)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}"
                          ) from None


def write_json(path, obj):
    """Deterministic JSON dump: sorted keys, two-space indent, trailing
    newline, repr-precision floats."""
    atomic_write_text(path,
                      [json.dumps(obj, indent=2, sort_keys=True) + "\n"])
