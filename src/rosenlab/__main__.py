"""`python -m rosenlab GROUP ACTION [flags]`: the rosenlab command line."""

import sys

from .expcli import main

if __name__ == "__main__":
    sys.exit(main())
