"""Op times corrected for the speed the CPU ran at while the op ran.

On a shared virtual CPU the same pure-Python code runs up to twice as fast in
one second as in the next, in bursts of a fraction of a second and in drifts
over minutes, and CPU time moves with wall time.  Raw op latencies then spread
by 20-50% between runs of identical code.  So every measured time is rescaled
by a fixed reference loop timed around and during it:

    normalized = raw * NOMINAL_NS / median(reference loop times)

which is the time the op would take on a CPU on which the reference loop takes
NOMINAL_NS.  The loop does the program's two kinds of work in about equal
shares, exact Fraction arithmetic (rref, certificates) and dict updates under
tuple keys (forms, the theta walk), and calls nothing of the program, so a
change to the program moves normalized time as it moves raw time.  Over 8 s
windows the loop's median time correlated 0.95-0.99 with that of a
fingerprint, a dualize-and-certify and a theta-walk op.

During an op, SIGPROF fires every SAMPLE_EVERY_S of CPU time and the handler
times the loop once; the handler's own time is taken out of the op's latency.
Short ops get no sample inside, so the loop is also timed right before and
right after every op.
"""

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_NS = 500_000  # about the loop's median time on a 2-vCPU Xeon VM
SAMPLE_EVERY_S = 0.02
BRACKET = 2  # loop timings right before and right after each op

_clock = time.perf_counter_ns
_ROW = tuple(Fraction(i % 7 - 3, 1 + i % 5) for i in range(40))


def reference_loop():
    acc = Fraction(0)
    for x in _ROW:
        acc += x * x
    table = {}
    for i in range(750):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * 3
    return acc, table


def time_reference():
    start = _clock()
    reference_loop()
    return _clock() - start


def normalize(raw_ns, samples):
    # the median: a sample that a page fault or preemption hit reads several times slower
    return raw_ns * NOMINAL_NS / statistics.median(samples)


class SpeedClock:
    """Times calls and rescales them by the reference loop; one per process.

    ``now`` is perf_counter_ns less the time spent in the SIGPROF handler, so
    spans timed with it (the tracer's) leave the handler out as ``measure`` does.
    """

    def __init__(self):
        self._samples = []
        self._spent = 0
        time_reference()  # first call pays for warming the code and its pages
        signal.signal(signal.SIGPROF, self._on_prof)

    def now(self):
        return _clock() - self._spent

    def _on_prof(self, signum, frame):
        start = _clock()
        reference_loop()
        end = _clock()
        self._samples.append(end - start)
        self._spent += end - start

    def measure(self, fn, *args):
        """fn(*args) -> (result, raw ns, normalized ns)."""
        self._samples = [time_reference() for _ in range(BRACKET)]
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = self.now()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            # a handler still pending runs before this line, so inside the interval
            raw = self.now() - start
        samples = self._samples + [time_reference() for _ in range(BRACKET)]
        return result, raw, normalize(raw, samples)
