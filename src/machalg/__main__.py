"""``python -m machalg``: the same entry point as the ``machalg`` script."""

import sys

from .cli import main

sys.exit(main())
