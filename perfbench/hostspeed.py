"""The host's speed while the benchmark works, so that run.py can scale a
timed span to seconds of the reference host.

A gauge times a fixed kernel of about half a millisecond; one sample's
speed is the kernel's time on the reference host over its time now.  A
worker takes a burst of samples before each job and after the last, and a
wall-clock timer signal takes one every SAMPLE_EVERY_S seconds while a job
or the imports run: the host's speed switches between states within a
second, so samples taken only around a span of seconds miss the states it
ran in.  The kernels never change and are no part of intermit, so a slower
program still reads slower; only the host's speed is divided out.

This module is plain Python, so that it can sample while numpy is being
imported; `numpy_gauge` imports numpy when it is called.
"""

import signal
from time import perf_counter

SAMPLE_EVERY_S = 0.025
BURST = 10  # samples before each job and after the last


def _python_kernel() -> None:
    """Interpreted arithmetic, dict updates and a sort, like the imports'
    unmarshalling and module bodies."""
    acc, table = 0, {}
    for i in range(2000):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 13
    sorted(table.values())


class Gauge:
    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s  # the kernel's typical time on the reference host

    def speed(self) -> float:
        start = perf_counter()
        self.kernel()
        return self.reference_s / (perf_counter() - start)

    def burst(self) -> list:
        return [self.speed() for _ in range(BURST)]


PYTHON_GAUGE = Gauge(_python_kernel, 0.0004)


def numpy_gauge() -> Gauge:
    """The jobs' gauge, in two halves of about a quarter of a millisecond:
    interpreted arithmetic with numpy calls on a 64-element vector, the
    program's commonest work, and passes over a 320-kB array.  The first
    half alone swings by about 1.4 times as much as the jobs do when the
    host changes speed; with the second the gauge swings about as they do."""
    import numpy

    vector = numpy.linspace(0.0, 1.0, 64)
    block = numpy.random.default_rng(0).random(40_000)

    def kernel() -> None:
        acc = 0.0
        for i in range(75):
            acc += float((vector * (i % 7)).sum()) + (i * i) % 13
        for _ in range(4):
            acc += float((block * block[::-1]).sum())
        acc += float(numpy.sort(block[:12_000])[0])

    return Gauge(kernel, 0.0005)


class Sampler:
    """Samples a gauge on a timer signal between start() and stop().  The
    handler runs between two bytecodes of the main thread, so a long numpy
    or BLAS call delays it.  `overhead` is the handlers' own time, which a
    timed span leaves out."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.speeds = []
        self.overhead = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.speeds.append(self.gauge.speed())
        self.overhead += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
