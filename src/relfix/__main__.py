"""``python -m relfix``: the ``relfix`` command line."""

from .cli import console

console()
