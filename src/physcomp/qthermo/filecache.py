"""The decoded-file cache: a large matrix or vector file is decoded once.

``states._read_entries`` imports this module only for a file of
``units.LARGE_FILE_BYTES`` bytes or more. An entry is one file named by its
key (:func:`key`): a tag line, then the parsed array in .npy format. The
tag line holds the hex digest of the entry (:func:`_entry_digest`), then
the file's units. Every OSError on the way is a miss or a skipped store,
so a run gives the same result whether the cache is there, warm, cold or
broken.
"""

from __future__ import annotations

import functools
import hashlib
import os
from contextlib import suppress

import numpy as np

from .. import units
from ..errors import FileFormatError
from . import states

# bytes the cache directory may hold; a store evicts the least recently
# used entries beyond it (a d = 512 matrix takes 4 MiB)
CACHE_MAX_BYTES = 2**28


@functools.cache
def _reader_digest() -> bytes | None:
    """SHA-256 of the code that turns a file's bytes into an array (states,
    units and this module), or None if its source cannot be read."""
    try:
        sources = [units.read_bytes(f) for f in (states.__file__, units.__file__, __file__)]
    except FileFormatError:
        return None
    return hashlib.sha256(b"".join(sources)).digest()


def key(data: bytes) -> str | None:
    """The key of a file of ``data``: the SHA-256 of the reader's code and
    the bytes; None where that code cannot be read."""
    reader = _reader_digest()
    if reader is None:
        return None
    h = hashlib.sha256(reader)
    h.update(data)
    return h.hexdigest()


def _cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/physcomp``, or ``~/.cache/physcomp`` where that is
    unset or not an absolute path; None where there is no home directory
    either, rather than a path relative to the working directory."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "physcomp") if os.path.isabs(root) else None


def _open_cache_dir(create: bool) -> int | None:
    """A descriptor of the cache directory, or None where there is none that
    only this user can write to: it must belong to ``os.getuid()`` and grant
    no group or other permission. Entries are then reached through the
    descriptor, so a path swapped after the check is not followed."""
    folder = _cache_dir()
    if folder is None or os.open not in os.supports_dir_fd:
        return None
    try:
        if create:
            os.makedirs(folder, mode=0o700, exist_ok=True)
        fd = os.open(folder, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return None
    st = os.fstat(fd)
    if st.st_uid == os.getuid() and not st.st_mode & 0o077:
        return fd
    os.close(fd)
    return None


def _opener(fd: int):
    """An ``open`` opener for names in the directory ``fd``; a file it
    creates can be read and written by its owner only."""
    return lambda name, flags: os.open(name, flags, 0o600, dir_fd=fd)


def _entry_digest(key: str, arr: np.ndarray, tag: bytes) -> bytes:
    """The hex SHA-256 of an entry's key, tag, dtype, shape and values, as
    its tag line holds it: a changed value, or an entry under another key's
    name, misses."""
    h = hashlib.sha256(f"{key} {arr.dtype.str} {arr.shape} ".encode() + tag + b"\n")
    h.update(np.ascontiguousarray(arr))
    return h.hexdigest().encode()


def get(key: str | None, ndim: int, accepted: tuple) -> tuple[np.ndarray, str | None] | None:
    """The (array, units) stored under ``key``, if the entry reads back whole
    with its digest and a parse of a matrix (ndim 2) or vector (ndim 1)
    file with units in ``accepted`` could have returned it: an entry made by
    a matrix read never serves a vector read. A hit marks the entry as
    recently used."""
    fd = None if key is None else _open_cache_dir(create=False)
    if fd is None:
        return None
    try:
        with open(key, "rb", opener=_opener(fd)) as fh:
            digest, _, tag = fh.readline().rstrip(b"\n").partition(b" ")
            arr = np.load(fh, allow_pickle=False)
        unit = tag.decode() or None
        d = arr.shape[0] if arr.ndim else 0
        if (
            digest != _entry_digest(key, arr, tag)
            or unit not in accepted
            or arr.dtype != complex
            or d < 1
            or arr.shape != (d,) * ndim
            or not arr.flags.c_contiguous
            or not np.isfinite(arr.view(float)).all()
        ):
            return None
        with suppress(OSError):
            os.utime(key, dir_fd=fd)
        return arr, unit
    except (OSError, ValueError, EOFError):
        return None
    finally:
        os.close(fd)


def put(key: str, arr: np.ndarray, unit: str | None) -> None:
    """Store ``arr`` and ``unit`` under ``key``, then evict."""
    fd = _open_cache_dir(create=True)
    if fd is None:
        return
    tag = (unit or "").encode()
    temp = f".{key}.{os.getpid()}"
    try:
        with open(temp, "wb", opener=_opener(fd)) as fh:
            fh.write(_entry_digest(key, arr, tag) + b" " + tag + b"\n")
            np.save(fh, arr, allow_pickle=False)
        os.replace(temp, key, src_dir_fd=fd, dst_dir_fd=fd)
        entries = []
        with os.scandir(fd) as listing:
            for entry in listing:
                if entry.is_file(follow_symlinks=False):
                    st = entry.stat(follow_symlinks=False)
                    entries.append((st.st_mtime, st.st_size, entry.name))
        total = 0
        for _, size, name in sorted(entries, reverse=True):
            total += size
            if total > CACHE_MAX_BYTES:
                os.remove(name, dir_fd=fd)
    except OSError:
        with suppress(OSError):
            os.remove(temp, dir_fd=fd)
    finally:
        os.close(fd)
