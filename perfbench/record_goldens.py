"""Print goldens.json: SHA-256 of every dataset in the fixed golden grid.

Run from the repository root, on the commit whose sampling is the reference:

    python3 perfbench/record_goldens.py > perfbench/goldens.json
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    print(json.dumps({"datasets": workloads.record_goldens()}, indent=1))
