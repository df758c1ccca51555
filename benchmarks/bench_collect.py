#!/usr/bin/env python3
"""Benchmark the two collection kernels against each other.

Runs the same workloads through pgforge._pykernel and (when built)
pgforge._ckernel: bulk multiplication, inversion, and a realistic
automorphism-search slice.  Usage:

    python benchmarks/bench_collect.py [--reps N]
"""

import argparse
import itertools
import random
import time

from pgforge import _pykernel

try:
    from pgforge import _ckernel
except ImportError:
    _ckernel = None

from pgforge import corpus


WORKLOADS = [
    ("dihedral-32", lambda: corpus.dihedral(32)),
    ("g64", lambda: corpus.g64()),
    ("liebeck128", lambda: corpus.liebeck128()),
    ("wreath-81", lambda: corpus.heisenberg_like(3)),
    ("g243", lambda: corpus.g243()),
]


def bench_backend(impl, P, reps, vecs):
    t = impl.make_tables(P.n_gens, P.rel_orders, P.pow_words, P.conj_words)
    t0 = time.perf_counter()
    for i in range(reps):
        x = vecs[i % 64]
        y = vecs[(i * 7 + 3) % 64]
        impl.mul(t, x, y)
    mul_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(reps // 4):
        impl.inv(t, vecs[i % 64])
    inv_s = time.perf_counter() - t0
    return mul_s, inv_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=20000)
    args = parser.parse_args()

    backends = [("python", _pykernel)]
    if _ckernel is not None:
        backends.append(("compiled", _ckernel))
    else:
        print("compiled kernel not built; benchmarking the pure kernel only")

    print(f"{'group':<14} {'backend':<10} {'mul ops/s':>12} {'inv ops/s':>12}")
    for name, ctor in WORKLOADS:
        P = ctor().presentation
        # every backend is timed on the same operands
        rng = random.Random(7)
        vecs = [tuple(rng.randrange(m) for m in P.rel_orders) for _ in range(64)]
        rows = {}
        for bname, impl in backends:
            mul_s, inv_s = bench_backend(impl, P, args.reps, vecs)
            rows[bname] = (args.reps / mul_s, (args.reps // 4) / inv_s)
            print(
                f"{name:<14} {bname:<10} {rows[bname][0]:>12.0f} {rows[bname][1]:>12.0f}"
            )
        if len(rows) == 2:
            speedup = rows["compiled"][0] / rows["python"][0]
            print(f"{name:<14} {'speedup':<10} {speedup:>11.1f}x")
    # an end-to-end slice: the order-2 search on the order-64 fixture
    import os
    import subprocess
    import sys

    print("\nend-to-end: automorphism search on the order-64 fixture")
    snippet = (
        "import time; "
        "from pgforge.corpus import g64; "
        "from pgforge.structure import frattini; "
        "from pgforge.autos import search_order_p_automorphisms; "
        "G = g64().presentation; t0 = time.perf_counter(); "
        "ws = search_order_p_automorphisms(G, frattini(G)); "
        "print(f'  {len(ws)} witnesses in {time.perf_counter()-t0:.2f}s')"
    )
    for env_name, extra in [("compiled", {}), ("python", {"PGFORGE_PURE": "1"})]:
        if env_name == "compiled" and _ckernel is None:
            continue
        env = dict(os.environ, **extra)
        print(f"[{env_name}]", flush=True)
        subprocess.run([sys.executable, "-c", snippet], env=env, check=True)


if __name__ == "__main__":
    main()
