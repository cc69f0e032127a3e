"""Server shutdown under signals: graceful first, forceful on a second.

Both paths run in subprocesses so the signal dispositions are real:

- graceful: SIGTERM to a serving process stops the pipeline, ``close()``
  runs, and the process exits 0 with its final stats line;
- forceful: a second SIGTERM while already stopping falls through to the
  default disposition, and the process dies.
"""

import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def _serve_then_sigterm(args, settle=0.0):
    """Start ``repro serve`` with ``args``, SIGTERM it once it is serving
    (after ``settle`` seconds), and return ``(returncode, stdout, stderr)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        banner = proc.stdout.readline()
        assert "serving" in banner, banner
        time.sleep(settle)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    return proc.returncode, stdout, stderr


def test_sigterm_mid_ingest_serve_exits_clean():
    # A looping synthetic source, SIGTERMed once ingest is under way.
    code, stdout, stderr = _serve_then_sigterm(
        ["--synthetic", "200000", "--loop", "--rate", "50000"], settle=1.0
    )
    assert code == 0, stderr
    assert "final" in stdout, stdout


def test_second_sigterm_while_stopping_dies():
    # A service already stopping (the first signal's effect) that gets a
    # second SIGTERM must fall through to process death.
    code = (
        "import os, signal\n"
        "from repro.service.server import DetectionService, install_signal_handlers\n"
        "service = DetectionService([], with_http=False).start()\n"
        "install_signal_handlers(service)\n"
        "service.stop()  # first-signal equivalent: now 'stopping'\n"
        "print('stopping', flush=True)\n"
        "os.kill(os.getpid(), signal.SIGTERM)\n"
        "print('survived', flush=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    lines = proc.stdout.split()
    assert lines == ["stopping"], proc.stderr
    assert proc.returncode == -signal.SIGTERM


def test_first_sigterm_drains_and_exits_zero_via_cli():
    # Graceful single-signal path end to end through the CLI: a finite
    # scenario replay interrupted by one SIGTERM stops cleanly (exit 0)
    # and still prints its final stats line.
    code, stdout, stderr = _serve_then_sigterm(
        ["--scenario", "volumetric_flood", "--loop", "--rate", "5000"]
    )
    assert code == 0, stderr
    assert "final" in stdout, stdout
