#!/usr/bin/env python3
"""Measure the CPU an idle deployment burns: two `dlm-serve` backends and
one `dlm-router` over them, default flags, no client.

Usage, from the repository root, after `cargo build --release`:

    python3 scripts/idle_cpu.py [--bin-dir target/release] [--seconds 20]

Each process is started on an ephemeral port and waits for its `READY`
line. The probe then sleeps for the window and prints the summed
`utime + stime` (from `/proc/<pid>/stat`) the three processes used
during it, in ms of CPU per second of wall time. Linux only.
"""

import argparse
import os
import subprocess
import sys
import time


def start(cmd):
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    for line in proc.stdout:
        if line.startswith("READY "):
            return proc, line.split('"addr":"')[1].split('"')[0]
    sys.exit(f"idle_cpu: {cmd[0]} exited before READY")


def cpu_ticks(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", default=os.path.join("target", "release"))
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    procs = []
    try:
        backends = []
        for _ in range(2):
            proc, addr = start([os.path.join(args.bin_dir, "dlm-serve"), "--addr", "127.0.0.1:0"])
            procs.append(proc)
            backends.append(addr)
        router = [os.path.join(args.bin_dir, "dlm-router"), "--addr", "127.0.0.1:0"]
        for addr in backends:
            router += ["--backend", addr]
        procs.append(start(router)[0])

        before = sum(cpu_ticks(p.pid) for p in procs)
        started = time.monotonic()
        time.sleep(args.seconds)
        ticks = sum(cpu_ticks(p.pid) for p in procs) - before
        wall = time.monotonic() - started
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()

    hz = os.sysconf("SC_CLK_TCK")
    cpu_ms = 1000.0 * ticks / hz
    print(f"idle trio: {ticks} ticks ({cpu_ms:.0f} ms CPU) over {wall:.1f} s "
          f"= {cpu_ms / wall:.2f} ms/s")


if __name__ == "__main__":
    main()
