"""Acceptance benchmarks for the parallel sweep runner.

Three properties from the issue, asserted at benchmark scale:

1. A six-point sweep under ``ParallelSweepRunner(workers=4)`` is
   metric-for-metric identical to the serial ``sweep()``.
2. On a 4-core runner the parallel sweep is at least 1.5x faster.
3. A sweep killed mid-run (SIGKILL, no cleanup) resumes from its
   checkpoints: completed points are not recomputed and the final
   results match an uninterrupted run.

The wall-clock assertions are gated on core count so laptops and
single-core CI shards skip rather than flake.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import DAYS, ExperimentConfig, RngRegistry, generate_trace, invalidation
from repro.replay import ParallelSweepRunner, result_to_dict, sweep
from repro.traces import PROFILES

SWEEP_SCALE = float(os.environ.get("REPRO_BENCH_SWEEP_SCALE", "0.1"))

#: Six points, mirroring the paper's six trace/lifetime rows but on one
#: trace so the per-point cost is roughly uniform.
POINTS = [
    (f"lifetime-{days:g}d", {"mean_lifetime": days * DAYS})
    for days in (2.5, 7.0, 14.0, 25.0, 50.0, 100.0)
]


@pytest.fixture(scope="module")
def base_config():
    trace = generate_trace(
        PROFILES["SDSC"].scaled(SWEEP_SCALE), RngRegistry(seed=42)
    )
    return ExperimentConfig(
        trace=trace, protocol=invalidation(), mean_lifetime=25 * DAYS
    )


@pytest.mark.parallel_sweep
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup assertion needs >= 4 cores"
)
def test_parallel_identical_and_faster(base_config):
    started = time.monotonic()
    serial = sweep(base_config, POINTS)
    serial_wall = time.monotonic() - started

    started = time.monotonic()
    parallel = sweep(
        base_config, POINTS, runner=ParallelSweepRunner(workers=4)
    )
    parallel_wall = time.monotonic() - started

    assert [r.label for r in parallel] == [r.label for r in serial]
    for s, p in zip(serial, parallel):
        assert result_to_dict(p.result) == result_to_dict(s.result)
    speedup = serial_wall / parallel_wall
    print(f"serial {serial_wall:.2f}s, parallel {parallel_wall:.2f}s, "
          f"speedup {speedup:.2f}x")
    assert speedup >= 1.5


_SWEEP_SCRIPT = """\
import sys
from repro import DAYS, ExperimentConfig, RngRegistry, generate_trace, invalidation
from repro.replay import ParallelSweepRunner, result_to_dict, sweep
from repro.traces import PROFILES

scale, ckpt = float(sys.argv[1]), sys.argv[2]
trace = generate_trace(PROFILES["SDSC"].scaled(scale), RngRegistry(seed=42))
base = ExperimentConfig(trace=trace, protocol=invalidation(),
                        mean_lifetime=25 * DAYS)
points = [(f"lifetime-{d:g}d", {"mean_lifetime": d * DAYS})
          for d in (2.5, 7.0, 14.0, 25.0, 50.0, 100.0)]
runner = ParallelSweepRunner(workers=2, checkpoint_dir=ckpt, resume=True,
                             progress=lambda line: print(line, flush=True))
results = sweep(base, points, runner=runner)
import json
print("RESULTS " + json.dumps([result_to_dict(r.result) for r in results]),
      flush=True)
"""


def _spawn_sweep(checkpoint_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-u", "-c", _SWEEP_SCRIPT, str(SWEEP_SCALE),
         str(checkpoint_dir)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


@pytest.mark.parallel_sweep
def test_kill_mid_sweep_resumes_from_checkpoints(base_config, tmp_path):
    checkpoint_dir = tmp_path / "ckpt"

    # Start a sweep and SIGKILL it once at least two points checkpointed.
    victim = _spawn_sweep(checkpoint_dir)
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline:
            done = list(checkpoint_dir.glob("point-*.json"))
            if len(done) >= 2:
                break
            if victim.poll() is not None:
                pytest.fail("sweep finished before it could be killed; "
                            "raise REPRO_BENCH_SWEEP_SCALE")
            time.sleep(0.01)
        else:
            pytest.fail("no checkpoints appeared within 120s")
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.wait()
        victim.stdout.close()
    survivors = {p.name: p.stat().st_mtime_ns
                 for p in checkpoint_dir.glob("point-*.json")}
    assert len(survivors) >= 2
    assert len(survivors) < len(POINTS)  # it really was interrupted

    # Resume: the surviving checkpoints are loaded, not recomputed.
    resumed = _spawn_sweep(checkpoint_dir)
    output, _ = resumed.communicate(timeout=600)
    assert resumed.returncode == 0, output
    resumed_lines = [line for line in output.splitlines()
                     if "resumed from checkpoint" in line]
    assert len(resumed_lines) >= len(survivors)
    for name, mtime in survivors.items():
        path = checkpoint_dir / name
        assert path.stat().st_mtime_ns == mtime  # untouched on resume

    # And the stitched-together results match an uninterrupted serial run.
    payload = json.loads(
        [line for line in output.splitlines()
         if line.startswith("RESULTS ")][0][len("RESULTS "):]
    )
    serial = sweep(base_config, POINTS)
    assert payload == [result_to_dict(r.result) for r in serial]
