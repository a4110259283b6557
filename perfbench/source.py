"""Put the checkout's own source tree first on the import path."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"  # inputs, spans and results; never committed
BASELINE_DIR = ROOT / "perfbench" / "baseline"  # trajectory points, point-<n>.json


def use_checkout_source() -> None:
    """Import higgsalg from ``src/`` of this checkout, never from elsewhere.
    Exits non-zero, printing no result, when the source tree is missing."""
    if not (SRC / "higgsalg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no higgsalg source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import higgsalg

    if Path(higgsalg.__file__).resolve().parent != SRC / "higgsalg":
        raise SystemExit(f"perfbench: higgsalg imported from {higgsalg.__file__}, not {SRC}")
