"""`python -m hopfcheck`: the `hopf` command line."""

from .cli import entry

entry()
