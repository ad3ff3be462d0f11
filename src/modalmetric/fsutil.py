"""Small filesystem helpers shared by checkpointing and the CLI."""

import contextlib
import json
import os

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
    left as it was. The temp file is created as `open()` creates a file,
    so the artifact gets the same mode: 0o666 less the umask, or what the
    directory's default ACL allows of 0o666.

    Raises:
        ConfigError: naming the path, if it cannot be written.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    ensure_dir(directory)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}"
                          ) from None


def json_text(obj, indent, depth=1):
    """`json.dumps(obj, indent=indent, sort_keys=True)`, built from the C
    encoder's one-line pieces: the pure-Python encoder that `indent`
    selects leaves its closures in a reference cycle on every call."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    pad = "\n" + " " * (indent * depth)
    items = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(item, (dict, list, tuple)) for item in items):
        body = json.dumps(obj, sort_keys=True, separators=("," + pad, ": "))
        body = body[1:-1]
    elif isinstance(obj, dict):  # each key as json writes it, then ": "
        body = ("," + pad).join(
            json.dumps({k: 0})[1:-2] + json_text(v, indent, depth + 1)
            for k, v in sorted(obj.items()))
    else:
        body = ("," + pad).join(json_text(item, indent, depth + 1)
                                for item in obj)
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + pad + body + pad[:-indent] + ends[1]


def write_json(path, obj):
    """Deterministic JSON dump: sorted keys, two-space indent, trailing
    newline, repr-precision floats."""
    atomic_write_text(path, [json_text(obj, 2) + "\n"])
