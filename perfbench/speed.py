"""Speed probe: how fast the machine runs the workload's kind of work at
each moment of a worker.

The benchmark's machine is shared.  Other tenants slow both the wall and
the CPU time of the same code by 1.5-2x, for stretches from a fraction of
a second to minutes, so a whole run can fall inside a slow stretch.  A
worker therefore samples a fixed kernel every `INTERVAL_S` from a
SIGALRM handler while it sets up and, in `run` mode, while its
operations run.  The kernel is a frozen copy of the library's
`nonlinear_term` (zero-pad, complex FFT pair of size 3M/2, square,
truncate) at the workload's main grid size, written here with numpy
alone so that no change to the library can move it.  run.py scales the set-up time, and each
operation's time, by the mean over the samples taken during it of the
reference time over the sample's time: times are reported in seconds at
the kernel's reference speed.  Samples taken after set-up do not track the speed of
set-up (the times of 150 set-ups against them fit a slope of 0.4 in log
scale); samples taken during it do (slope 0.9, correlation 0.9).

The handler runs in the worker's main thread between bytecodes, so a
sample measures the core that runs the operation.  Its own time is
recorded and taken out of the operation's time.
"""
import signal
import time

import numpy as np

INTERVAL_S = 0.025

# Per workload: grid size of the kernel, timed calls per sample (about
# 0.5 ms), and the time of those calls on a quiet 2-vCPU Xeon VM
# (numpy 2.4.6).
PROBES = {
    "battery": (512, 6, 0.46e-3),
    "picard": (256, 12, 0.47e-3),
    "solve-m4096": (4096, 2, 0.52e-3),
}


class Sampler:
    def __init__(self, workload):
        M, self.calls, _ = PROBES[workload]
        Mp, half = 3 * M // 2, M // 2
        rng = np.random.default_rng(0)
        coeffs = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / M
        kp = np.fft.fftfreq(Mp, d=1.0 / Mp)
        phase = np.where(kp.astype(int) % 2 == 0, 1.0, -1.0)
        xi = np.fft.fftfreq(M, d=1.0 / M)

        def kernel():
            cp = np.zeros(Mp, dtype=np.complex128)
            cp[:half] = coeffs[:half]
            cp[Mp - half:] = coeffs[half:]
            up = np.fft.ifft(cp * phase)
            wp = phase * np.fft.fft(up * up)
            np.sum(np.abs(wp) ** 2)
            np.sum(np.abs(wp[half:Mp - half]) ** 2)
            c = np.zeros(M, dtype=np.complex128)
            c[:half] = wp[:half]
            c[half:] = wp[Mp - half:]
            c *= 0.5j * xi
            return c

        self._kernel = kernel
        # per sample: start, wall and CPU seconds of the whole sample, and
        # the time of the timed calls
        self.samples = []

    def sample(self, *_):
        """One untimed call brings the kernel's data back into cache after
        the operation's own work, then `calls` timed calls."""
        t0, c0 = time.perf_counter(), time.process_time()
        self._kernel()
        t1 = time.perf_counter()
        for _ in range(self.calls):
            self._kernel()
        t2 = time.perf_counter()
        self.samples.append((t0, t2 - t0, time.process_time() - c0, t2 - t1))

    def busy(self, t0, t1):
        """Wall time of the samples that started between t0 and t1."""
        return sum(p[1] for p in self.samples if t0 <= p[0] < t1)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
