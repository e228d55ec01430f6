"""`python -m warplab`: the command-line front door of `warplab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
