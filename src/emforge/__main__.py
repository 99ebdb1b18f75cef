"""`python -m emforge`: the same command line as the `emforge` script."""

import sys

from .cli import main

sys.exit(main())
