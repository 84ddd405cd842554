"""``python -m sftkit``: the command line of ``sftkit.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
