"""`python -m qroute`: the same command line as the `qroute` script."""

from .cli import main

main()
