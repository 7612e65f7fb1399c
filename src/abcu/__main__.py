"""``python -m abcu``: the ``abcu`` command."""

from .cli import main

main()
