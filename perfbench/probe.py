"""Machine-speed probe: how fast this CPU runs Python right now.

On the shared 2-vCPU host this benchmark was built on, the speed of pure
Python code swings by up to 1.9x within seconds and independently on each
vCPU (neighbours share the physical cores), so raw wall times of the same
work spread by 12% (coefficient of variation) between back-to-back
interpreters.  The probe times a fixed chunk of Fraction arithmetic, the
same kind of work shortgf does, from a SIGALRM handler every
PROBE_INTERVAL_S while the workload runs: on the same thread, hence on the
same vCPU at the same moment.  Dividing the workload's time by the mean
probe time relative to REFERENCE_PROBE_S cut that spread to 3.6%.
"""

import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.001  # a probe's time on an uncontended vCPU, roughly
EDGE_SAMPLES = 3  # probes taken just before and just after the region


def _chunk():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    return acc


class SpeedProbe:
    """Context manager sampling machine speed around and inside a region.

    ``in_region_wall_s`` / ``in_region_cpu_s`` are the probes' own cost
    inside the region, for the caller to subtract; ``slowdown`` is the mean
    probe time over REFERENCE_PROBE_S.
    """

    def __init__(self):
        self.samples = []
        self.in_region_wall_s = 0.0
        self.in_region_cpu_s = 0.0
        self._previous = None

    def _sample(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _chunk()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.samples.append(wall)
        return wall, cpu

    def _on_alarm(self, signum, frame):
        wall, cpu = self._sample()
        self.in_region_wall_s += wall
        self.in_region_cpu_s += cpu

    def __enter__(self):
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return False

    @property
    def slowdown(self):
        return sum(self.samples) / len(self.samples) / REFERENCE_PROBE_S


def slowdown_now(samples=20):
    """Slowdown from `samples` probes taken back to back, about 25 ms."""
    probe = SpeedProbe()
    for _ in range(samples):
        probe._sample()
    return probe.slowdown
