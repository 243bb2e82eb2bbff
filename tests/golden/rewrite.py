"""Rewrite ``cli_outputs.txt``, the corpus that ``tests/test_pinned_outputs.py``
compares the CLI outputs with, from the code as it stands.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/rewrite.py

It prints the new corpus's sha256, which goes into ``PINNED``.  Standard
library only; the test suite never runs it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_pinned_outputs import CORPUS, records

with tempfile.TemporaryDirectory() as tmp:
    data = "".join(head + out for head, out in records(Path(tmp))).encode()
CORPUS.write_bytes(data)
print(hashlib.sha256(data).hexdigest())
