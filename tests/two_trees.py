"""Load a source tree of this package in this process under a name of its
own, so that the comparison scripts in this directory (admission_sweep,
bessel_sweep, large_kr_time, request_time) call two trees' functions side
by side:

    this = load(ROOT / "src", "sonophoton")
    other = load(Path("OTHER/src"), "sonophoton_other")

Every import inside the package is relative, so the modules loaded under
a name are that tree's alone.  The name does not match test_*.py, so
pytest does not collect this file.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path


def load(src: Path, name: str):
    """The package in src/sonophoton, imported as name, with its cli
    module; bubble and specfun are registered lazily, as the package
    registers them, and run on first use."""
    spec = importlib.util.spec_from_file_location(
        name, src / "sonophoton" / "__init__.py",
        submodule_search_locations=[str(src / "sonophoton")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package
