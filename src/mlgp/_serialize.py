"""Text files whose floats survive a write/read cycle bit for bit.

Every file the package writes or reads goes through here.  Python writes
each float as the shortest decimal string that parses back to the same
double, so reloads are bit-exact (-0.0 and subnormals included).  Key trees
are JSON from the standard library, where a non-finite float raises
ValueError instead of producing invalid JSON.  Tables are CSV: a header,
then one line of comma-joined ``str`` values per row.
"""

import json
from pathlib import Path

import numpy as np


def _to_builtin(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def save(path, obj):
    text = json.dumps(obj, indent=1, allow_nan=False, default=_to_builtin)
    Path(path).write_text(text + "\n")


def load(path):
    return json.loads(Path(path).read_text())


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
