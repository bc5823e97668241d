"""Child process of the benchmark: cold import time, environment, warm-up.

Run it with the checkout's ``src`` first on ``PYTHONPATH``:

    python3 bench/probe.py              # time `import sitefactors.cli`, print JSON
    python3 bench/probe.py --warm DIR   # also call every subcommand once on a
                                        # tiny input written under DIR

The JSON line records the imported module path and the Python, numpy, scipy
and BLAS versions with the BLAS thread count, so a result says which code and
which libraries it measured. The warm-up calls compile the package's `.pyc`
files and load the shared libraries before any timed process starts.
"""

import sys
import time

_start = time.perf_counter()
import sitefactors.cli as cli  # noqa: E402  (the import is what is timed)

IMPORT_S = time.perf_counter() - _start
MODULES_LOADED = len(sys.modules)

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import warm_calls  # noqa: E402


def _blas() -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
    }


def _warm(directory: str) -> list:
    codes = []
    for argv in warm_calls(directory):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            codes.append(cli.main(argv))
    return codes


def main(argv) -> int:
    record = {
        "import_s": IMPORT_S,
        "modules_loaded": MODULES_LOADED,
        "module_path": os.path.abspath(cli.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
    status = 0
    if argv[:1] == ["--warm"]:
        record["warm_exit_codes"] = _warm(argv[1])
        status = 0 if not any(record["warm_exit_codes"]) else 1
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
