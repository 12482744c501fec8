"""Key-tree text files whose floats survive a write/read cycle bit for bit.

The layout is JSON, written and read by the standard library.  Python
writes each float as the shortest decimal string that parses back to the
same double, so reloads are bit-exact (-0.0 and subnormals included), and
a non-finite float raises ValueError instead of producing invalid JSON.
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
