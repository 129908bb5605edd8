"""Puts this directory on ``sys.path`` so test modules can import the helper
modules beside them (``flat_params``) under any pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
