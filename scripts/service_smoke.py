#!/usr/bin/env python3
# p4-ok-file — CI smoke driver for the streaming detection server.
"""End-to-end gate for ``repro serve`` (the CI service-smoke job).

Boots the server on the ``volumetric_flood`` scenario at a controlled
replay rate, then drives the whole operator surface from outside the
process:

1. poll ``GET /healthz`` until the pipeline reports ready, then drained;
2. read ``GET /alerts`` and score the digests against the scenario's
   labeled ground truth — the committed quality floors in
   ``benchmarks/scenario_baseline.json`` must hold end to end;
3. cross-check ``GET /stats`` against the trace (every packet counted,
   alert totals consistent, nothing dropped);
4. SIGTERM the server and require a zero exit;
5. boot ``repro serve --feed`` and send good JSON lines mixed with lines
   that fail validation: every full batch must be served while the
   connection is still open, ``/healthz`` must never report ``error``,
   ``/stats`` must count every bad line in ``bad_lines`` and exactly the
   good lines in ``packets``.  Without numpy (as in CI) this is also the
   run of the per-packet parse that builds the feed's batches.

Writes a verdict table to ``$GITHUB_STEP_SUMMARY`` when set.  Exits
non-zero on any failure; both servers' logs land in ``server.log`` (or
``$SERVICE_SMOKE_LOG``) for the artifact upload.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.scenarios import build_scenario  # noqa: E402
from repro.scenarios.score import score_digests  # noqa: E402

SCENARIO = os.environ.get("SERVICE_SMOKE_SCENARIO", "volumetric_flood")
RATE = int(os.environ.get("SERVICE_SMOKE_RATE", "4000"))
LOG_PATH = os.environ.get("SERVICE_SMOKE_LOG", "server.log")
BOOT_TIMEOUT = 30.0
DRAIN_TIMEOUT = 120.0

#: Good feed lines, and lines the feed must count and skip: a port and an
#: address out of range, a null and an infinite timestamp.
FEED_GOOD = 4000
#: The feed server's ``--batch-size``: 15 full batches, then 160 lines
#: that flush only when the connection closes.
FEED_BATCH = 256
FEED_BAD = (
    b'{"dst": "10.0.0.9", "sport": 70000}',
    b'{"dst": 5000000000}',
    b'{"dst": "10.0.0.9", "ts": null}',
    b'{"dst": "10.0.0.9", "ts": 1e999}',
)


class Digest:
    """Rebuild digest-likes from /alerts records for the pure scorer."""

    def __init__(self, record):
        self.name = record["name"]
        self.fields = record["fields"]
        self.timestamp = record["timestamp"]


def fail(message):
    print(f"::error::service-smoke: {message}")
    sys.exit(1)


def get_json(url, path, timeout=10.0):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))
    except (urllib.error.URLError, OSError):
        return None, None


def wait_for_banner(deadline, pattern=r"serving .* on (http://[\d.]+:\d+)"):
    pattern = re.compile(pattern)
    while time.monotonic() < deadline:
        if os.path.exists(LOG_PATH):
            with open(LOG_PATH, "r", encoding="utf-8") as handle:
                match = pattern.search(handle.read())
            if match:
                return match.groups() if pattern.groups > 1 else match.group(1)
        time.sleep(0.1)
    return None


def feed_lines():
    """Good lines with every bad line mixed in after each 1,000th good one."""
    lines = []
    for i in range(FEED_GOOD):
        record = {
            "dst": "10.0.0.7" if i % 8 == 0 else f"10.0.{i % 4}.{i % 200 + 1}",
            "ts": i * 0.001,
            "sport": 1024 + i % 5000,
            "dport": 53,
        }
        lines.append(json.dumps(record).encode())
        if i % 1000 == 0:
            lines.extend(FEED_BAD)
    return lines


def feed_phase(env):
    """Phase 5: bad feed lines are counted and skipped; the service stays up."""
    lines = feed_lines()
    bad = len(lines) - FEED_GOOD
    with open(LOG_PATH, "a", encoding="utf-8") as log:
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--feed",
                "127.0.0.1:0",
                "--batch-size",
                str(FEED_BATCH),
                "--port",
                "0",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            found = wait_for_banner(
                time.monotonic() + BOOT_TIMEOUT,
                r"serving feed:([\d.]+):(\d+) on (http://[\d.]+:\d+)",
            )
            if found is None:
                fail("feed server never printed its banner; see server.log")
            host, port, url = found
            states = set()

            def poll_health():
                payload = get_json(url, "/healthz")[1] or {"state": "unreachable"}
                states.add(payload["state"])
                return payload

            full = FEED_GOOD // FEED_BATCH * FEED_BATCH
            with socket.create_connection((host, int(port)), timeout=10.0) as feed:
                for start in range(0, len(lines), 500):
                    feed.sendall(b"\n".join(lines[start : start + 500]) + b"\n")
                    poll_health()
                # Every full batch is served while the connection is open;
                # only the partial last one waits for the close.
                deadline = time.monotonic() + DRAIN_TIMEOUT
                while time.monotonic() < deadline:
                    served_open = (get_json(url, "/stats")[1] or {}).get("packets")
                    if served_open == full:
                        break
                    poll_health()
                    time.sleep(0.1)
                else:
                    fail(
                        f"/stats packets {served_open} with the feed open, "
                        f"sent {full} in full batches"
                    )
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while time.monotonic() < deadline:
                health = poll_health()
                if health["state"] in ("drained", "error"):
                    break
                time.sleep(0.1)
            if "error" in states:
                fail(f"feed pipeline errored: {health.get('error')}")
            if health["state"] != "drained":
                fail(f"feed never drained, last state {health['state']}")
            status, stats = get_json(url, "/stats")
            if status != 200:
                fail(f"/stats returned {status}")
            if stats.get("bad_lines") != bad:
                fail(f"/stats bad_lines {stats.get('bad_lines')}, sent {bad} bad lines")
            if stats["packets"] != FEED_GOOD:
                fail(f"/stats packets {stats['packets']}, sent {FEED_GOOD} good lines")
            server.send_signal(signal.SIGTERM)
            returncode = server.wait(timeout=60)
            if returncode != 0:
                fail(f"feed server exited {returncode} on SIGTERM; see server.log")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
    return [
        f"| feed packets served while connected | {served_open} | {full} | ✅ |",
        f"| feed packets served | {stats['packets']} | {FEED_GOOD} | ✅ |",
        f"| feed bad lines counted | {stats['bad_lines']} | {bad} | ✅ |",
        f"| feed /healthz states | {', '.join(sorted(states))} | no error | ✅ |",
    ]


def main():
    scenario = build_scenario(SCENARIO)
    expected_packets = len(scenario.trace)
    with open(
        os.path.join(REPO_ROOT, "benchmarks", "scenario_baseline.json"),
        "r",
        encoding="utf-8",
    ) as handle:
        floors = json.load(handle)["floors"][SCENARIO]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    log = open(LOG_PATH, "w", encoding="utf-8")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--scenario",
            SCENARIO,
            "--rate",
            str(RATE),
            "--port",
            "0",
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=env,
    )
    try:
        url = wait_for_banner(time.monotonic() + BOOT_TIMEOUT)
        if url is None:
            fail("server never printed its banner; see server.log")
        print(f"server up at {url}, replaying {SCENARIO} at {RATE} pps")

        # Phase 1: the paced replay must pass through a live ready state.
        saw_ready = False
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while time.monotonic() < deadline:
            status, health = get_json(url, "/healthz")
            if health is not None:
                if health["state"] == "ready":
                    saw_ready = True
                    if status != 200:
                        fail(f"/healthz ready but status {status}")
                if health["state"] == "drained":
                    break
                if health["state"] == "error":
                    fail(f"pipeline errored: {health.get('error')}")
            time.sleep(0.2)
        else:
            fail("server never drained the scenario replay")
        if not saw_ready:
            fail("never observed a ready /healthz (rate too fast for the poll?)")
        status, health = get_json(url, "/healthz")
        if status != 200 or health["state"] != "drained":
            fail(f"expected drained 200 after replay, got {status} {health}")

        # Phase 2: alerts must reproduce the scenario's committed floors.
        status, alerts = get_json(url, "/alerts")
        if status != 200:
            fail(f"/alerts returned {status}")
        digests = [Digest(record) for record in alerts["alerts"]]
        if not digests:
            fail("replay produced no alerts")
        score = score_digests(scenario.truth, digests, scenario=SCENARIO)
        checks = [
            ("precision", score.precision, ">=", floors["min_precision"]),
            ("recall", score.recall, ">=", floors["min_recall"]),
            ("f1", score.f1, ">=", floors["min_f1"]),
            (
                "latency_intervals",
                score.latency_intervals,
                "<=",
                floors["max_latency_intervals"],
            ),
        ]
        for label, value, op, floor in checks:
            ok = value >= floor if op == ">=" else value <= floor
            if not ok:
                fail(f"{label} {value} violates floor {op} {floor}")

        # Phase 3: /stats must be consistent with the trace and the log.
        status, stats = get_json(url, "/stats")
        if status != 200:
            fail(f"/stats returned {status}")
        if stats["packets"] != expected_packets:
            fail(f"stats counted {stats['packets']} packets, trace has {expected_packets}")
        if stats["dropped_batches"] != 0:
            fail(f"block policy dropped {stats['dropped_batches']} batches")
        if stats["alerts"] != len(digests) or stats["alert_cursor"] != len(digests):
            fail(f"alert counters inconsistent: {stats['alerts']} vs {len(digests)}")

        # Phase 4: graceful SIGTERM, clean exit.
        server.send_signal(signal.SIGTERM)
        returncode = server.wait(timeout=60)
        if returncode != 0:
            fail(f"server exited {returncode} on SIGTERM; see server.log")
        log.close()

        feed_rows = feed_phase(env)

        summary = [
            "### service-smoke",
            "",
            "| check | value | floor | verdict |",
            "| --- | --- | --- | --- |",
            f"| scenario | `{SCENARIO}` | — | — |",
            f"| packets served | {stats['packets']} | {expected_packets} | ✅ |",
            f"| alerts | {stats['alerts']} | ≥1 | ✅ |",
            f"| precision | {score.precision:.3f} | ≥{floors['min_precision']} | ✅ |",
            f"| recall | {score.recall:.3f} | ≥{floors['min_recall']} | ✅ |",
            f"| f1 | {score.f1:.3f} | ≥{floors['min_f1']} | ✅ |",
            f"| detection latency (intervals) | {score.latency_intervals:.2f} | ≤{floors['max_latency_intervals']} | ✅ |",
            f"| pps (EWMA) | {stats['pps_ewma']:.0f} | — | — |",
            f"| batch p99 (ms) | {stats['batch_latency_p99_ms']:.2f} | — | — |",
            f"| dropped batches | {stats['dropped_batches']} | 0 | ✅ |",
            f"| SIGTERM exit | {returncode} | 0 | ✅ |",
            *feed_rows,
        ]
        text = "\n".join(summary)
        print(text)
        step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if step_summary:
            with open(step_summary, "a", encoding="utf-8") as handle:
                handle.write(text + "\n")
        print("service-smoke: all gates passed")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        log.close()


if __name__ == "__main__":
    main()
