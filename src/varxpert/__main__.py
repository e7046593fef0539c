"""The process entry of `python -m varxpert` and of the `varxpert` console
script, which pyproject.toml points at this module's `main`."""

import gc
import sys

from varxpert.cli import main

# What is alive now (the stdlib, varxpert's modules) lives until exit. Frozen,
# no collection walks it again, the full one at interpreter shutdown included.
# cli.main does not freeze: the tests call it in-process many times.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
