#!/usr/bin/env python3
"""Pins the greencap CLI's exit-status contract (docs/ROBUSTNESS.md).

    0    success
    1    runtime failure (an artifact path that cannot be written)
    2    usage error (a malformed --config)
    130  SIGINT with --checkpoint: a checkpoint is written, then the run exits
    137  the --ckpt-kill-after chaos hook

Usage: cli_exit_codes.py --binary path/to/greencap
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

SMALL = ["--platform", "32-AMD-4-A100", "--op", "gemm", "--n", "23040", "--nb", "2880",
         "--config", "HHBB"]


def run(binary, args, cwd):
    return subprocess.run([binary, *args], cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def interrupted_status(binary, cwd):
    """Exit status of a checkpointed run sent SIGINT once its first periodic
    checkpoint exists; the run itself would take several seconds."""
    path = os.path.join(cwd, "interrupt.gckp")
    proc = subprocess.Popen(
        [binary, "--platform", "32-AMD-4-A100", "--op", "getrf", "--config", "HHBB",
         "--checkpoint", path, "--checkpoint-every-ms", "50"],
        cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60
    while not os.path.exists(path) and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=120)
    signalled = False
    if os.path.exists(path):
        with open(path, "rb") as f:
            signalled = b'"reason":"signal"' in f.read()
    return proc.returncode, err, signalled


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    args.binary = os.path.abspath(args.binary)

    failures = []

    def expect(what, status, want, err=""):
        verdict = "ok" if status == want else "FAIL"
        print(f"{verdict}: {what}: exit {status} (want {want})")
        if status != want:
            failures.append(f"{what}: exit {status}, want {want}\n{err}")

    with tempfile.TemporaryDirectory() as cwd:
        r = run(args.binary, SMALL, cwd)
        expect("success", r.returncode, 0, r.stderr)

        r = run(args.binary, [*SMALL, "--decisions-json",
                              os.path.join(cwd, "missing", "decisions.json")], cwd)
        expect("unwritable artifact path", r.returncode, 1, r.stderr)

        r = run(args.binary, ["--config", "HHXZ"], cwd)
        expect("malformed --config", r.returncode, 2, r.stderr)

        status, err, signalled = interrupted_status(args.binary, cwd)
        expect("SIGINT with --checkpoint", status, 130, err)
        if not signalled:
            failures.append("SIGINT with --checkpoint: the checkpoint's reason is not 'signal'")

        r = run(args.binary, [*SMALL, "--checkpoint", os.path.join(cwd, "kill.gckp"),
                              "--checkpoint-every-ms", "40", "--ckpt-kill-after", "1"], cwd)
        expect("chaos kill hook", r.returncode, 137, r.stderr)

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
