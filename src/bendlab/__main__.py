"""``python -m bendlab``: the ``bendlab`` command."""

import sys

from .cli import main

sys.exit(main())
