"""``python -m gauduchon``: the gauduchon command line (gauduchon.cli.main)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
