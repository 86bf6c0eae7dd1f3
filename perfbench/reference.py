"""The benchmark's measure of core speed: fixed work with no tanglekit.

On a shared machine the core's speed changes by up to 1.8x, over
anything from a fraction of a second to minutes, so raw wall times of
the same code differ that much between runs.  The benchmark therefore
times fixed reference work next to what it measures and divides the
measured time by the reference's slowness: its time over its time at
reference speed.

Work inside one interpreter (in-process ops, set-up after the launch)
is scaled by the in-process reference: ``reference`` run a few times in
the measuring process.  Work that starts a process (a cold CLI op, a
worker's launch) is scaled by the geometric mean of that and the cold
reference: this file run as a fresh interpreter (``python3
reference.py``), which starts, imports and runs ``reference``
COLD_REPEATS times.  Neither reference alone tracks a cold process at
every load.  On one sample of 109 cold ``reproduce`` ops whose in-process
slowness ranged over 0.84-1.71, the scaled op time of the fastest and
the slowest third of the ops differed by 0.8% with the in-process
reference, by 5.3% with the cold one and by 0.6% with their geometric
mean; at another time cold processes slowed 1.15-1.48x while the
in-process reference slowed 1.62-1.65x.  The geometric mean halves the
error of whichever reference is off.

REFERENCE_S and COLD_REFERENCE_S are the two references on an
uncontended core of a 2-vCPU Intel Xeon VM, Python 3.11.7; they set the
speed that scaled times are given at.
"""

from __future__ import annotations

REFERENCE_S = 0.00078
COLD_REPEATS = 60
COLD_REFERENCE_S = 0.11


def reference() -> list[int]:
    """Fixed interpreter work: a union-find over 512 items, like the
    program's inner loops, used only to measure the core's speed."""
    parent = list(range(512))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(2500):
        a, b = find(i * 7 % 512), find(i * 13 % 512)
        if a != b:
            parent[a] = b
    return parent


if __name__ == "__main__":
    for _ in range(COLD_REPEATS):
        reference()
