"""``python -m kunzlab``: the ``kunzlab`` command line."""

import sys

from .cli import main

sys.exit(main())
