"""``python -m saltpepper``: the ``saltpepper`` command line."""

from .cli import main

main()
