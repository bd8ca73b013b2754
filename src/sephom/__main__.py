"""Entry point for ``python -m sephom``."""

from .cli import main

if __name__ == "__main__":
    main()
