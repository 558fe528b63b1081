#!/usr/bin/env python3
"""Flat profile from a gmon.out that keeps C++20 coroutine bodies.

GCC emits each coroutine body as a local clone, `f(...) [clone .actor]`.
gprof leaves those symbols out of its flat profile and bills their samples
to whichever function precedes them in the binary. This script reads the
time histogram of gmon.out itself and maps every bucket onto every text
symbol `nm` lists, actors included.

Usage:
  python3 tools/gmon_actors.py BINARY [GMON_OUT] [--top N]

BINARY must be the -pg build that wrote GMON_OUT (default ./gmon.out).
"""
import argparse
import bisect
import struct
import subprocess
import sys


def histograms(path):
    """Yield (low_pc, high_pc, rate, counts) for each time-histogram record."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        sys.exit(f"{path}: not a gmon.out file")
    pos = 20  # magic, version, 12 spare bytes
    while pos < len(data):
        tag, pos = data[pos], pos + 1
        if tag == 0:  # time histogram: header, then one u16 count per bin
            low, high, bins, rate = struct.unpack_from("<QQii", data, pos)
            pos += 40  # the header ends with a 15-byte unit and its abbreviation
            yield low, high, rate, struct.unpack_from(f"<{bins}H", data, pos)
            pos += 2 * bins
        elif tag == 1:  # call-graph arc: from_pc, self_pc, count
            pos += 20
        elif tag == 2:  # basic-block counts: n, then n (address, count) pairs
            pos += 4 + 16 * struct.unpack_from("<I", data, pos)[0]
        else:
            sys.exit(f"{path}: unknown record tag {tag}")


def text_symbols(binary):
    """Sorted (address, demangled name) of every defined text symbol."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addr = int(parts[0], 16)
            if not syms or syms[-1][0] != addr:  # keep one name per address
                syms.append((addr, parts[2]))
    return syms


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("gmon", nargs="?", default="gmon.out")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    syms = text_symbols(args.binary)
    addrs = [a for a, _ in syms]
    seconds = {}
    for low, high, rate, counts in histograms(args.gmon):
        step = (high - low) / len(counts)
        for i, c in enumerate(counts):
            if c:
                k = bisect.bisect_right(addrs, int(low + i * step)) - 1
                name = syms[k][1] if k >= 0 else "<before first symbol>"
                seconds[name] = seconds.get(name, 0.0) + c / rate
    total = sum(seconds.values()) or 1.0
    actors = sum(s for n, s in seconds.items() if "[clone .actor]" in n)
    print(f"{total:.2f} s sampled, {100 * actors / total:.1f}% in coroutine "
          "bodies ([clone .actor])")
    print(f"{'%':>6} {'self s':>8}  name")
    for name, s in sorted(seconds.items(), key=lambda kv: -kv[1])[:args.top]:
        print(f"{100 * s / total:6.2f} {s:8.2f}  {name}")


if __name__ == "__main__":
    main()
