"""Import the program from the checkout's own ``src/`` tree.

The benchmark measures the source it sits next to, never an installed
copy: a checkout without ``src/repro`` is an error, not a fallback.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_checkout_source() -> None:
    """Put ``ROOT/src`` first on ``sys.path`` and check that ``repro``
    is imported from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"repro was imported from {origin}, not from {SRC}")
