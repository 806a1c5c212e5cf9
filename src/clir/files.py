"""The one reader of input files, and the one writer of output files.

Every input file is UTF-8 text: a leading byte-order mark is dropped, lines
may end in ``\\n``, ``\\r\\n`` or ``\\r``, and blank lines are skipped. A byte
that does not decode, or JSON that does not parse, is a ParseError naming the
file and the line. Every output file is written through ``replacing``, and
``discard`` sends what is left for a closed pipe to ``os.devnull``.
"""

import contextlib
import json
import os
import re
import shutil

from clir.errors import ParseError

_UNDECODABLE = re.compile("[\udc80-\udcff]")  # undecodable bytes under surrogateescape


def read_lines(path):
    """Yield ``(line_no, line)`` for each non-blank line, without its line end."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line and not line.isspace():
                bad = not line.isascii() and _UNDECODABLE.search(line)
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    raise ParseError(f"byte 0x{byte:02x} is not UTF-8", path, line_no)
                yield line_no, line


def _parse(text, path, line_nos):
    """The JSON value of ``text``, whose lines are lines ``line_nos`` of the file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line_no = line_nos[exc.lineno - 1] if line_nos else None
        raise ParseError(f"bad JSON: {exc.msg}", path, line_no) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the digit limit, or nesting past the recursion limit
        line_no = line_nos[0] if len(line_nos) == 1 else None
        raise ParseError(f"bad JSON: {exc}", path, line_no) from None


def read_json(path):
    """The one JSON document a file holds."""
    numbered = list(read_lines(path))
    return _parse("\n".join(line for _, line in numbered), path, [n for n, _ in numbered])


def read_json_lines(path):
    """Yield ``(line_no, record)`` for each line, each a JSON object."""
    for line_no, line in read_lines(path):
        record = _parse(line, path, (line_no,))
        if not isinstance(record, dict):
            raise ParseError("record is not an object", path, line_no)
        yield line_no, record


def discard(fh):
    """Point the descriptor under ``fh`` at ``os.devnull``, so that what its buffer
    holds for a closed pipe goes nowhere (Python's ``signal`` docs, "Note on SIGPIPE")."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fh.fileno())
    os.close(devnull)


@contextlib.contextmanager
def replacing(path):
    """Open ``path`` to write UTF-8 text, so that the file there ends up
    complete or untouched: the data goes to a new file beside the path's real
    target (a symlink keeps its link, the target its permission bits), synced
    and renamed over it if the block raises nothing, removed if it raises. A
    path that is not a regular file (``/dev/null``, a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    temp = f"{target}.{os.urandom(4).hex()}.tmp"  # not secrets: hashlib costs 3.7 MB
    try:  # "x": created here, with the permission bits "w" would give a new file
        fh = open(temp, "x", encoding="utf-8")
    except OSError as exc:
        exc.filename = os.fspath(path)  # the user's path, not the temporary file's
        raise
    with fh:
        try:
            if os.path.exists(target):
                shutil.copymode(target, temp)
            yield fh
            fh.flush()
            os.fsync(fh.fileno())  # not the directory's: the rename is atomic without it
            os.replace(temp, target)
        except BaseException:  # KeyboardInterrupt too
            os.unlink(temp)
            raise
