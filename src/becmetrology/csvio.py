"""CSV/JSON emission with provenance headers and atomic replacement."""

from __future__ import annotations

import csv
import io
import json
import os


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temporary file and rename, so readers never see halves.

    The file gets the mode that open(path, "w") would give it: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, fieldnames, rows, header_lines=()) -> None:
    """Write rows of values with '#'-prefixed provenance lines on top."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
