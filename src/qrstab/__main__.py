"""``python -m qrstab``: the command-line front end, run from a checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
