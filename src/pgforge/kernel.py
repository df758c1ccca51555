"""Kernel backend selection.

Prefers the compiled extension, falls back to the pure-Python kernel.
PGFORGE_PURE=1 forces the pure backend (useful for parity testing and
benchmarking).
"""

import os

if os.environ.get("PGFORGE_PURE") == "1":
    from pgforge import _pykernel as _impl
else:
    try:
        from pgforge import _ckernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        from pgforge import _pykernel as _impl

BACKEND = _impl.BACKEND

make_tables = _impl.make_tables
collect = _impl.collect
mul = _impl.mul
inv = _impl.inv
power = _impl.power
# not a kernel operation: `PcPresentation.element` asks for the pure
# kernel's own tuple equal to a normal form; the compiled one keeps none
_shared = getattr(_impl, "_shared", lambda tables, vec: vec)
