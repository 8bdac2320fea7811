"""``python -m nldyn``: the command-line front end (same as ``nldyn``)."""

import sys

from .cli import main

sys.exit(main())
