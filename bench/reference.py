"""Reference kernel: fixed work that never touches the package.

    python3 bench/reference.py PROCS

Runs the same fixed mix of numpy and plain-Python work in PROCS processes
at once and prints their mean time.  The mix resembles a sweep cell: a
key ranking, a rejection-style integer draw with a sort, a gather+sum and
an interpreter loop.  The harness runs it between simulate runs, on as
many processes as the workload has workers, to read the host's speed at
that moment (see ``calibration`` in bench/run.py).
"""

import os
import sys
import time

ROUNDS = 60


def _work(seed: int) -> float:
    import numpy as np

    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    couplings = rng.exponential(size=150_000)
    total = 0.0
    for _ in range(ROUNDS):
        keys = rng.random((400, 1024))
        picked = np.sort(np.argpartition(keys, 39, axis=1)[:, :40], axis=1)
        idx = rng.integers(0, couplings.size, size=(1000, 32))
        idx.sort(axis=1)
        total += couplings[idx].sum(axis=1).sum() + picked.sum()
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - started


def main(procs: int) -> None:
    # Fork before numpy is imported, so no process inherits its threads.
    readers = []
    for seed in range(1, procs):
        r, w = os.pipe()
        if os.fork() == 0:
            try:
                os.close(r)
                os.write(w, repr(_work(seed)).encode())
            finally:
                os._exit(0)
        os.close(w)
        readers.append(r)
    times = [_work(0)]
    for r in readers:
        with os.fdopen(r) as fh:
            times.append(float(fh.read()))
    for _ in readers:
        os.wait()
    print(sum(times) / len(times))


if __name__ == "__main__":
    main(int(sys.argv[1]))
