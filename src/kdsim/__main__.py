"""``python -m kdsim``: the kdsim command line, as the installed ``kdsim`` script runs it."""
import sys

from .cli import main

sys.exit(main())
