import signal

import pytest

import speed
import workloads


def test_every_workload_names_a_kernel():
    assert set(workloads.SPEED_KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.SPEED_KERNEL.values()) <= set(speed.KERNELS)


@pytest.mark.parametrize("kernel", sorted(speed.KERNELS))
def test_meter_scales_by_the_samples_and_cleans_up(kernel):
    meter = speed.SpeedMeter(kernel)
    previous = signal.getsignal(signal.SIGALRM)

    def busy():
        end = speed.clock() + 0.3
        while speed.clock() < end:
            pass
        return "done"

    start = speed.clock()
    scaled, raw, result = meter.time(busy)
    wall = speed.clock() - start
    assert result == "done"
    samples = meter._samples
    assert len(samples) >= 3
    assert raw == pytest.approx(wall - sum(samples), abs=0.01)
    mean_speed = sum(meter.nominal_s / s for s in samples) / len(samples)
    assert scaled == pytest.approx(raw * mean_speed)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_a_call_shorter_than_one_interval_still_gets_a_sample():
    meter = speed.SpeedMeter("interpreted")
    scaled, raw, result = meter.time(lambda: 7)
    assert result == 7
    assert len(meter._samples) == 1
    assert scaled > 0 and raw >= 0
