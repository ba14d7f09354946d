"""The host-speed scaling reads a slower host as slower, whatever the run.

    python3 -m pytest perfbench
"""

import time

from pace import MIN_SAMPLES, REFERENCE_S, Pace
from run import at_reference_speed


def test_pace_samples_the_kernel_while_a_run_measures():
    with Pace() as pace:
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(pace.samples) >= MIN_SAMPLES
    assert pace.slowness() > 0


def test_a_slow_host_is_scaled_back_to_the_reference_speed():
    pace = Pace()
    pace.samples = [2 * REFERENCE_S] * MIN_SAMPLES  # host at half speed
    slowness = pace.slowness()
    assert slowness == 2
    assert at_reference_speed(10.0, "s", slowness) == 5.0
    assert at_reference_speed(100.0, "1/s", slowness) == 200.0
    assert at_reference_speed(300.0, "MiB", slowness) == 300.0
    pace.samples += [4 * REFERENCE_S] * MIN_SAMPLES  # then at a quarter
    assert pace.slowness(MIN_SAMPLES) == 4
    assert pace.slowness(2 * MIN_SAMPLES - 1) == 3  # too few: every sample
