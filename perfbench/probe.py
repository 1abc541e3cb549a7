"""A fixed piece of CPU work that measures how fast the machine runs now.

On a shared host the speed of a vCPU swings by up to 1.6x within seconds
and drifts over minutes (see NOTES.md, "Measurement noise"). The benchmark
times this probe before and after every stage and scales the stage's time
to the speed the probe had on the reference machine. The probe runs none
of the program's code, so no change to the program can move it. Its mix of
pure-Python graph search and small dense numpy products is the mix of the
program's own hot paths.
"""

import gc
import random
import time

# Seconds the probe takes on the reference machine in a fast spell (it
# took 0.13-0.22 s there, median 0.17 s).
REFERENCE_S = 0.15


class Probe:
    def __init__(self):
        import numpy as np  # imported late: the caller pins BLAS threads first

        rng = random.Random(0)
        self.adj = [set() for _ in range(400)]
        for _ in range(1600):
            u, v = rng.randrange(400), rng.randrange(400)
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.a = np.random.default_rng(0).standard_normal((48, 48))
        self.np = np

    def _search(self):
        """Breadth-first search from every node."""
        reached = 0
        for source in range(len(self.adj)):
            seen, frontier = {source}, [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in self.adj[u]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            reached += len(seen)
        return reached

    def _dense(self):
        x = self.a
        for _ in range(5000):
            x = self.np.tanh(x @ self.a) * 0.5 + self.a
        return x

    def seconds(self):
        """Wall seconds of one probe, with the cyclic collector held off."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._search()
            self._dense()
            return time.perf_counter() - t0
        finally:
            gc.enable()
