"""Child accounting: timeouts and per-child peak RSS."""

import sys
import time

import pytest

from run import Runner


@pytest.fixture
def runner():
    r = Runner(deadline=time.monotonic() + 60)
    yield r
    r.close()


def test_a_hung_child_is_killed_and_counted_as_failed(tmp_path, runner):
    runner.deadline = time.monotonic() + 1
    o = runner.run([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path / "o", tmp_path / "e")
    assert o.code is None
    assert o.wall < 10
    assert o.problem().startswith("timed out")


def test_peak_rss_is_the_childs_own(tmp_path, runner):
    ballast = b"\1" * (300 << 20)  # the benchmark's heap must not show up in its children
    small = runner.run([sys.executable, "-c", "pass"], tmp_path / "o", tmp_path / "e")
    big = runner.run([sys.executable, "-c", "x = b'1' * (200 << 20)"], tmp_path / "o", tmp_path / "e")
    assert small.code == big.code == 0 and small.problem() is None
    assert all(0 < t < 1 for t in (*small.probe, *big.probe))
    assert small.rss_mb < 100 < 200 < big.rss_mb < 300
    assert len(ballast) == 300 << 20
