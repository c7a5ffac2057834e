"""Workload set-up: import, cover, fragmenter construction and first calls.

The benchmark process calls these functions to build its own state.  Run as
a script, this file times one set-up in a fresh interpreter, import of
circlekit included, and prints it as JSON; setup_s is the median of several
such processes:

    python3 perfbench/perfsetup.py <workload> <path of src/>
"""

import json
import sys
import time

EPS = 0.01
FRAG_GRIDS = (1024, 4096)


def frag_sweep() -> tuple[dict, dict]:
    from circlekit import diffeo, frag_diff

    cover = diffeo.CoverConfig.default()
    fragmenters, init_ms = {}, {}
    for n in FRAG_GRIDS:
        start = time.perf_counter()
        fragmenters[n] = frag_diff.DiffeoFragmenter(cover, n)
        init_ms[n] = (time.perf_counter() - start) * 1e3
    # first call: FFT plans and lazy numpy set-up at both grid sizes
    for n, fragmenter in fragmenters.items():
        fragmenter.fragment(diffeo.CircleDiffeo.from_fourier([(1, 0, 0.005)], n), EPS)
    state = {"cover": cover, "fragmenters": fragmenters}
    return state, {"frag_diff.fragmenter_init.ms": init_ms[1024]}


def group_laws() -> tuple[dict, dict]:
    from circlekit import diffeo

    return {"cover": diffeo.CoverConfig.default()}, {}


def verma_exact() -> tuple[dict, dict]:
    import circlekit  # noqa: F401  (the modules themselves are built cold per round)

    return {}, {}


SETUPS = {"frag_sweep": frag_sweep, "group_laws": group_laws, "verma_exact": verma_exact}


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    _, parts = SETUPS[sys.argv[1]]()
    print(json.dumps({"setup_s": time.perf_counter() - start, **parts}))
