"""The benchmark under perfbench/ reads names from the package: its self-test
and its environment record must keep working, so that removing such a name
fails this suite and not only a benchmark run.  Nothing here changes
perfbench/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_selftest_and_environment_record():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed"

    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert isinstance(run.environment(), dict)
