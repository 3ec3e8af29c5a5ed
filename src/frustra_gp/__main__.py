"""`python -m frustra_gp`: the same command line as the `frustra-gp` script."""

from .cli import main

if __name__ == "__main__":
    main()
