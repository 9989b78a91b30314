"""A machine-speed probe that scales measured times to one reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by a
factor of two within seconds, in phases that last from a fraction of a
second to minutes, so raw wall times of identical work differ more from
run to run than any change worth detecting.  While a run measures,
``Pace`` runs a probe, a fixed piece of interpreted work, from a
``SIGALRM`` handler every ``INTERVAL`` seconds.  A timed region's wall time,
net of the probe's own time, is multiplied by the mean probe speed during
the region relative to ``REF_S``: the result is the time the region would
have taken at the speed at which one probe takes ``REF_S``.  The program
under test cannot change the probe, so a faster program still reads faster
and a faster machine does not.
"""

import array
import signal
import statistics
import time

INTERVAL = 0.01     # seconds between probes
REF_S = 60e-6       # probe time at the reference speed, close to its median
                    # on the 2-vCPU guest the benchmark was tuned on, so
                    # scaled times read close to wall times there
MIN_SAMPLES = 5     # a region with fewer probes uses the latest ones
CAPACITY = 1 << 16  # probe times kept, a ring: 655 s at INTERVAL

# A small stack machine that sums 0..n-1 in a counted loop.  It runs on
# preallocated lists and the handler stores its times in a preallocated
# array, so the probe creates no objects the collector tracks and does not
# move when the program's collections run.
_CODE = (("push", 0), ("store", 0), ("push", 0), ("store", 1),
         ("load", 1), ("load", 2), ("lt", None), ("jz", 17),
         ("load", 0), ("load", 1), ("add", None), ("store", 0),
         ("load", 1), ("push", 1), ("add", None), ("store", 1),
         ("jmp", 4), ("load", 0), ("ret", None))


_STACK = [0] * 4
_LOCAL = [0] * 3


def _interpret(n):
    stack, local, sp, pc = _STACK, _LOCAL, 0, 0
    local[2] = n
    while True:
        op, arg = _CODE[pc]
        pc += 1
        if op == "push":
            stack[sp] = arg
            sp += 1
        elif op == "load":
            stack[sp] = local[arg]
            sp += 1
        elif op == "store":
            sp -= 1
            local[arg] = stack[sp]
        elif op == "add":
            sp -= 1
            stack[sp - 1] += stack[sp]
        elif op == "lt":
            sp -= 1
            stack[sp - 1] = int(stack[sp - 1] < stack[sp])
        elif op == "jz":
            sp -= 1
            if not stack[sp]:
                pc = arg
        elif op == "jmp":
            pc = arg
        else:
            return stack[sp - 1]


def probe():
    """Seconds one run of the fixed probe work takes."""
    start = time.perf_counter()
    _interpret(40)
    return time.perf_counter() - start


class Pace:
    def __init__(self):
        self.samples = array.array("d", bytes(8 * CAPACITY))
        self.taken = 0          # probes run so far
        self.probe_s = 0.0      # wall time spent in the handler so far
        self._old = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples[self.taken % CAPACITY] = probe()
        self.taken += 1
        self.probe_s += time.perf_counter() - start

    def install(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def now(self):
        """A clock that stands still while the probe runs."""
        return time.perf_counter() - self.probe_s

    def mark(self):
        return self.taken

    def speed(self, mark):
        """Mean probe speed since ``mark``, relative to the reference."""
        end = self.taken
        start = max(0, min(mark, end - MIN_SAMPLES), end - CAPACITY)
        times = [self.samples[i % CAPACITY] for i in range(start, end)]
        if not times:
            times = [probe()]
        return statistics.mean(REF_S / t for t in times)
