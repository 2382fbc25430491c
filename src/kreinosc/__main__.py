"""Run the command line front end: python -m kreinosc <command> ..."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
