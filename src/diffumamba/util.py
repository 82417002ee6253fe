"""Small shared helpers: provenance, atomic file writes, CSV and JSON I/O."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os

_BUILD_ID = None


def build_id() -> str:
    """Short content hash of the installed package sources."""
    global _BUILD_ID
    if _BUILD_ID is None:
        h = hashlib.sha256()
        pkg_dir = os.path.dirname(os.path.abspath(__file__))
        for name in sorted(os.listdir(pkg_dir)):
            if name.endswith(".py"):
                with open(os.path.join(pkg_dir, name), "rb") as fh:
                    h.update(name.encode())
                    h.update(fh.read())
        _BUILD_ID = h.hexdigest()[:12]
    return _BUILD_ID


@contextlib.contextmanager
def atomic_write(path, binary=False):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` on success.

    A write that raises or is cut short leaves any previous file at
    ``path`` as it was, and no temp file behind.  Text mode is UTF-8 and
    writes newlines as given (``newline=""``, as ``csv`` expects).
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", newline="", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows, meta=None):
    """``# key=value`` provenance lines, a header row, then ``rows``."""
    with atomic_write(path) as fh:
        for k, v in (meta or {}).items():
            fh.write(f"# {k}={v}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj):
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
