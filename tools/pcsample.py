#!/usr/bin/env python3
"""Where did the time go when there is no `perf`: a ptrace PC sampler.

    tools/pcsample.py <interval_ms> <samples> -- <cmd...>

Starts <cmd>, seizes it with ptrace and, every <interval_ms>, interrupts
it, reads its program counter and lets it run on. At the end (after
<samples> samples, or when the command exits) prints two histograms: by
function and, with LINES=1, by innermost source line.

Environment:
    START_DELAY  seconds to let the command run before the first sample
                 and before /proc/<pid>/maps is read, so that shared
                 objects are mapped and set-up is skipped (default 0.2)
    LINES=1      also symbolise the executable's samples to source
                 lines with `addr2line -f -C -i -a` (needs a build with
                 debug info: CARGO_PROFILE_RELEASE_DEBUG=true into a
                 scratch CARGO_TARGET_DIR)
    TOP          rows per histogram (default 40)

Python 3 standard library + ctypes, Linux x86-64 only. Limits: the main
thread only (threads the command spawns are not sampled); a stop lands
after the instruction in flight retires, so samples skew towards long
instructions (divides, cache misses); an interrupt-and-resume costs
about 50 us, so below ~2 ms intervals the profile is of the sampler; a
sample in a shared object is named after the nearest *exported* symbol
below it (`nm -D`), so libm's and libc's internal routines (the pow and
log kernels, the allocator's arenas) show under a neighbour's name:
trust the library in brackets, and read the function as a hint.
"""

import bisect
import collections
import ctypes
import os
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000  # __WALL
RIP = 16  # index of `rip` in x86-64 `struct user_regs_struct`

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}): {os.strerror(err)}")


def sample(pid, interval, count):
    """PCs of `pid`'s main thread, one per `interval` seconds."""
    regs = (ctypes.c_ulonglong * 27)()
    pcs = []
    while len(pcs) < count:
        time.sleep(interval)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            break  # Gone between two samples.
        while True:
            _, status = os.waitpid(pid, WALL)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return pcs, status
            if status >> 16 == PTRACE_EVENT_STOP:
                ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs))
                pcs.append(regs[RIP])
                ptrace(PTRACE_CONT, pid, None, None)
                break
            # A signal on its way to the command: hand it over.
            ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(os.WSTOPSIG(status)))
    return pcs, None


def read_maps(pid):
    """Executable mappings as (start, end, load base, path), sorted."""
    lowest = {}
    rows = []
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5].rstrip("\n")
            lowest[path] = min(lowest.get(path, start), start)
            if "x" in parts[1]:
                rows.append((start, end, path))
    return sorted((s, e, lowest[p], p) for s, e, p in rows)


def is_pie(path):
    with open(path, "rb") as elf:
        header = elf.read(18)
    return header[16] == 3  # e_type == ET_DYN


def symbols(path, dynamic):
    """(sorted addresses, names) of `path`'s text symbols."""
    flags = ["-D", "-C", "-n"] if dynamic else ["-C", "-n"]
    out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwWiu":
            addrs.append(int(parts[0], 16))
            names.append(parts[2].split("@")[0])
    return addrs, names


def innermost_lines(exe, addrs):
    """`addr -> "function  file:line"` of the innermost inlined frame."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", exe, *(hex(a) for a in addrs)],
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    # Per address: its `0x...` line, then a (function, file:line) pair per
    # frame, innermost first.
    found = {}
    for i, line in enumerate(out[:-2]):
        if line.startswith("0x"):
            where = out[i + 2].rsplit("/", 2)
            found[int(line, 16)] = f"{out[i + 1]}  {'/'.join(where[-2:])}"
    return found


def histogram(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}% {n:7d}  {name}")


def main():
    args = sys.argv[1:]
    if len(args) < 4 or args[2] != "--":
        sys.exit(__doc__)
    interval = float(args[0]) / 1000.0
    count = int(args[1])
    cmd = args[3:]
    delay = float(os.environ.get("START_DELAY", "0.2"))
    top = int(os.environ.get("TOP", "40"))

    pid = os.fork()
    if pid == 0:
        os.execvp(cmd[0], cmd)
    try:
        ptrace(PTRACE_SEIZE, pid)
    except OSError as err:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, WALL)
        sys.exit(f"cannot trace the command: {err}")
    time.sleep(delay)
    try:
        maps = read_maps(pid)
    except FileNotFoundError:
        sys.exit("the command exited before START_DELAY")
    exe = os.path.realpath(f"/proc/{pid}/exe")
    pcs, status = sample(pid, interval, count)
    if status is None:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, WALL)

    starts = [m[0] for m in maps]
    tables = {}
    by_function = collections.Counter()
    exe_addrs = []
    for pc in pcs:
        at = bisect.bisect_right(starts, pc) - 1
        if at < 0 or pc >= maps[at][1]:
            by_function["[unmapped: vdso, kernel or JIT]"] += 1
            continue
        _, _, base, path = maps[at]
        if path not in tables:
            tables[path] = (is_pie(path), *symbols(path, dynamic=path != exe))
        pie, addrs, names = tables[path]
        addr = pc - base if pie else pc
        if path == exe:
            exe_addrs.append(addr)
        sym = bisect.bisect_right(addrs, addr) - 1
        name = names[sym] if sym >= 0 else "?"
        where = "" if path == exe else f"  [{os.path.basename(path)}]"
        by_function[name + where] += 1

    total = len(pcs)
    print(f"{total} samples of {' '.join(cmd)} (pid {pid}), every {args[0]} ms")
    if total == 0:
        return
    histogram("by function", by_function, total, top)
    if os.environ.get("LINES") == "1":
        lines = innermost_lines(exe, sorted(set(exe_addrs)))
        by_line = collections.Counter(lines.get(a, "?") for a in exe_addrs)
        outside = total - len(exe_addrs)
        if outside:
            by_line["[outside the executable]"] = outside
        histogram("by innermost line", by_line, total, top)


if __name__ == "__main__":
    main()
