"""``python -m hypverify``: the command-line interface of ``hypverify.cli``."""

import sys

from hypverify.cli import main

if __name__ == "__main__":
    sys.exit(main())
