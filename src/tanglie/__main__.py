"""Entry point for ``python -m tanglie``; same commands as ``tanglie``."""

from .cli_io import main

if __name__ == "__main__":
    main()
