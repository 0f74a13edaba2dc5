"""The package's C kernels: `_kernel.c`, compiled on first use with the
system C compiler (`cc`) into `$XDG_CACHE_HOME/soc_auction` (else
`~/.cache/soc_auction`) and loaded through ctypes.

`load()` is tried once per process and returns None when the kernels cannot
be built or loaded. Each caller then runs its own fallback with the same
outputs: `engine` the Python heap fold and `math.fsum`, `distributions`
scipy's ndtr and ndtri, `cli` its Python CSV cells. `cli` also writes in
Python each block that `csv_rows` declines: one holding a real outside
2**-53 <= |x| < 2**128. A `load` patched to return None runs them all.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

# -ffp-contract=off: no fused multiply-add, so the bits are the same on
# every target (the Cephes polynomials round each product)
_CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def load():
    """The kernels of `_kernel.c`, with the ctypes signature of each entry
    point set; None if they cannot be built or loaded."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    entries = {  # name: (argtypes, restype)
        "fold": ([ptr, i64, ctypes.c_int, ptr, ptr, ptr, ptr, ptr], i64),
        "exact_sum": ([ptr, i64], ctypes.c_double),
        "ndtri": ([ptr, ptr, i64], None),
        "ndtr": ([ptr, ptr, i64], None),
        "csv_rows": ([ptr, ptr, ptr, i64, i64, i64, ptr], i64),
    }
    src = Path(__file__).with_name("_kernel.c")
    try:
        key = hashlib.sha256(src.read_bytes() + " ".join(_CC).encode())
        xdg = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is invalid
        cache = (Path(xdg) if os.path.isabs(xdg)
                 else Path.home() / ".cache") / "soc_auction"
        lib = cache / f"_kernel-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            # pool workers may build at once: each writes its own file and
            # renames it into place
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*_CC, "-o", tmp, str(src), "-lm"], check=True,
                               capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
        for name, (argtypes, restype) in entries.items():
            fn = getattr(kernel, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    return kernel
