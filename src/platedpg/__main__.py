"""``python -m platedpg run ...``, the same command line as ``plate-dpg``."""
from .driver import main

if __name__ == "__main__":
    raise SystemExit(main())
