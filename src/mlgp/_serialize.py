"""Text files whose floats survive a write/read cycle bit for bit.

Every file the package writes or reads goes through here.  Python writes
each float as the shortest decimal string that parses back to the same
double, so reloads are bit-exact (-0.0 and subnormals included).  Key trees
are JSON from the standard library, where a non-finite float raises
ValueError instead of producing invalid JSON.  Tables are CSV: a header,
then one line of comma-joined ``str`` values per row; load_array parses one in C.
"""

import json
import warnings
from pathlib import Path

import numpy as np


def save(path, obj):
    text = json.dumps(obj, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n")


def load(path):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def save_table(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def load_table(path, header, types):
    """Yield the rows after an exact ``header``, each field parsed by its column's type.

    Blank lines are skipped.  A row of another width, or a field its type
    cannot parse, raises a one-line ValueError naming the file and line.
    """
    with open(path) as fh:
        if fh.readline().rstrip("\n") != header:
            raise ValueError(f"{path}: expected the header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.rstrip("\n").split(",")
            if len(row) != len(types):
                raise ValueError(f"{path}, line {lineno}: expected {len(types)} fields, got {len(row)}")
            try:
                values = [parse(v) for parse, v in zip(types, row)]
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            yield values


def load_array(path, header, dtype):
    """:func:`load_table`'s rows as a structured ``dtype`` array, parsed in C to the values
    ``int()`` and ``float()`` give; None for a file that NumPy refuses or warns about.
    """
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning, as for a table of no rows, refuses the file
        try:  # NumPy strips \x1c-\x1f around a field; int() and float() refuse them
            if fh.readline().rstrip("\n") != header or any(
                    c in chunk for chunk in iter(lambda: fh.read(1 << 16), "") for c in "\x1c\x1d\x1e\x1f"):
                return None
            fh.seek(0)
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
        except (ValueError, Warning):  # UnicodeDecodeError included
            return None
