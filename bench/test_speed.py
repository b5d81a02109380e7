"""Tests for the benchmark's speed sampler.

Run from the repository root:  python3 -m pytest -q bench/test_speed.py
"""
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def _burn(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@pytest.mark.parametrize("kernel", [speed.INTERPRETER, speed.LOADER])
def test_samples_rescale_cpu_time_and_leave_out_the_handler(kernel):
    sampler = speed.SpeedSampler(kernel).start()
    try:
        mark = sampler.mark()
        cpu0 = time.process_time()
        _burn(0.3)
    finally:
        sampler.stop()
    total = time.process_time() - cpu0
    taken = len(sampler.samples) - mark[0]
    cpu = sampler.cpu_since(mark)
    ratio = sampler.speed_since(mark)
    rescaled = sampler.reference_seconds(mark)
    assert taken >= 0.3 / kernel.interval_s / 2
    assert 0 < sampler.handler_s < total
    assert cpu == pytest.approx(total - sampler.handler_s, abs=1e-3)
    assert rescaled == pytest.approx(cpu * ratio, rel=1e-3)
    assert ratio == pytest.approx(
        sum(kernel.reference_s / s for s in sampler.samples[mark[0]:]) / taken, rel=1e-3)


def test_stop_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.SpeedSampler(speed.INTERPRETER).start()
    sampler.stop()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
