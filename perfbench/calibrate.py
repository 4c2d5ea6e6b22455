"""Measure how fast the core runs while the benchmark measures.

On a shared host the speed of one core changes by up to ~1.7x within
seconds as other tenants load the machine, and a whole run can sit on
either side.  The diffdiss operations are interpreter-bound, like the short
calibration pass below, so both slow down by nearly the same factor.
:class:`Sampler` times one pass every ``INTERVAL_S`` of wall time from a
SIGALRM handler while an operation runs, plus one pass just before and one
just after.  The operation's wall time, less the time spent in the handler,
is scaled by ``REFERENCE_S / mean pass time``.

Set-up (a fresh interpreter importing diffdiss) slows down less than the
pass does, so it has its own yardstick: ``IMPORT_PROBE``, a fresh
interpreter that imports numpy and a few standard modules, run just before
and just after each set-up.  Set-up times are scaled by
``REFERENCE_IMPORT_S / mean yardstick time``.

The reference values are the uncontended speeds of the 2-vCPU Intel Xeon
(KVM) sandbox the benchmark was tuned on, so scaled times read roughly as
uncontended wall times there.  On that sandbox the per-operation scatter
of 72 state-coupled ``interconnect`` operations was 20% unscaled, 12% when
scaled by one pass before and one after, and 4.8% with the passes during
the operation.  The scatter of set-up times was 15% unscaled, 18% when
scaled by passes, and 10% with the import yardstick.

Neither yardstick uses anything from diffdiss, so a change to the program
cannot move them.  Do not edit them: their cost defines the unit.
"""

import signal
import time

REFERENCE_S = 0.50e-3
INTERVAL_S = 0.02
_ITERATIONS = 100

REFERENCE_IMPORT_S = 0.10
IMPORT_PROBE = ("import time, json, decimal, numpy; "
                "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)
        return _Dual(self.v * o, self.d * o)


def pass_seconds() -> float:
    """Wall time of one calibration pass."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        x = _Dual(0.001 * i, 1.0)
        ys = [x * x + x * 0.5 for _ in range(4)]
        env = {"a": ys[0], "b": ys[1]}
        acc += env["a"].d
    return time.perf_counter() - start


class Sampler:
    """Context manager that times a block and samples the core speed around
    and during it.

    ``elapsed`` is the block's wall time minus the time spent in in-block
    passes; ``speed`` is the mean pass time; ``scaled`` is ``elapsed`` at the
    reference core speed.  ``on_pass``, if given, is called with the time
    spent in each in-block pass, so a tracer can take it out of its spans.
    """

    def __init__(self, on_pass=None):
        self.passes = []
        self.elapsed = None
        self._spent = 0.0
        self._start = None
        self._previous = None
        self._on_pass = on_pass

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.passes.append(pass_seconds())
        spent = time.perf_counter() - start
        self._spent += spent
        if self._on_pass is not None:
            self._on_pass(spent)

    def __enter__(self):
        self.passes.append(pass_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()  # the first alarm is INTERVAL_S away
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.elapsed = time.perf_counter() - self._start - self._spent
        signal.signal(signal.SIGALRM, self._previous)
        self.passes.append(pass_seconds())
        return False

    @property
    def speed(self) -> float:
        return sum(self.passes) / len(self.passes)

    @property
    def scaled(self) -> float:
        return self.elapsed * REFERENCE_S / self.speed
