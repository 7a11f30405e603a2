#!/usr/bin/env python3
"""Caller-attributed profile from scripts/stack_sampler.cpp samples.

Usage:

    python3 scripts/stack_report.py SAMPLES [--top N] [--callers K]

SAMPLES is the <BRISA_SAMPLE_OUT>.<pid> file the sampler wrote; its .maps
and .syms companions must sit next to it. Prints

  * the flat profile: self and inclusive share per function;
  * for the K hottest functions by self time, their immediate callers
    (with the first frame inside the profiled executable when the caller
    is library code), each with its share of the function's self samples
    — e.g. which call site pays for libc's memmove, which gprof leaves
    without a caller.

Names come from `nm` (the executable's symbol table, or the dynamic symbols
of a stripped library plus the libc entry points the sampler resolved);
code in a stripped library outside any known symbol is reported as
"[library unnamed]". A sample in a library routine without a frame of its
own takes its immediate caller from the return address at the stack
pointer; elsewhere the frame-pointer chain gives the callers.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_samples(path):
    with open(path, "rb") as handle:
        data = handle.read()
    words = struct.unpack(f"={len(data) // 8}Q", data[: len(data) // 8 * 8])
    dropped, samples, i = words[0], [], 1
    while i < len(words):
        n = words[i]
        samples.append(words[i + 1 : i + 1 + n])
        i += 1 + n
    return dropped, samples


def read_maps(path):
    """Executable file-backed mappings: (start, end, file offset, path)."""
    maps = []
    with open(path) as handle:
        for line in handle:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            file = parts[5].strip()
            if file.startswith("/"):
                maps.append((lo, hi, int(parts[2], 16), file))
    maps.sort()
    return maps


def load_segments(file):
    """PT_LOAD (offset, filesz, vaddr) of an ELF64 file."""
    with open(file, "rb") as handle:
        header = handle.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", header, 32)
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        segments = []
        for k in range(phnum):
            handle.seek(phoff + k * phentsize)
            ptype, _, offset, vaddr, _, filesz = struct.unpack(
                "<IIQQQQ", handle.read(40))
            if ptype == 1:
                segments.append((offset, filesz, vaddr))
        return segments


def nm_symbols(file):
    """Sorted (vaddr, size, name) of the text symbols of `file`."""
    for flags in (["-C", "--defined-only", "-S"],
                  ["-D", "-C", "--defined-only", "-S"]):
        done = subprocess.run(["nm", *flags, file], capture_output=True,
                              text=True, check=False)
        symbols = []
        for line in done.stdout.splitlines():
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[2] in "TtWwi":
                symbols.append((int(parts[0], 16), int(parts[1], 16),
                                parts[3]))
            elif len(parts) == 3 and parts[1] in "TtWwi":
                symbols.append((int(parts[0], 16), 0, parts[2]))
        if symbols:
            return sorted(symbols)
    return []


class Symbolizer:
    def __init__(self, maps, extra, executable):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.executable = executable
        self.segments = {}
        self.symbols = {}
        self.extra = extra  # runtime address -> name (resolved entry points)
        self.cache = {}

    def module_of(self, addr):
        k = bisect.bisect_right(self.starts, addr) - 1
        if k >= 0 and addr < self.maps[k][1]:
            return self.maps[k]
        return None

    def to_vaddr(self, mapping, addr):
        lo, _, offset, file = mapping
        if file not in self.segments:
            self.segments[file] = load_segments(file)
        file_off = addr - lo + offset
        for seg_off, filesz, vaddr in self.segments[file]:
            if seg_off <= file_off < seg_off + filesz:
                return file_off - seg_off + vaddr
        return None

    def table(self, mapping):
        file = mapping[3]
        if file not in self.symbols:
            table = nm_symbols(file)
            for runtime, name in self.extra.items():
                owner = self.module_of(runtime)
                if owner is not None and owner[3] == file:
                    vaddr = self.to_vaddr(owner, runtime)
                    if vaddr is not None:
                        table.append((vaddr, 0, name))
            table.sort()
            self.symbols[file] = (table, [s[0] for s in table])
        return self.symbols[file]

    def name(self, addr):
        """(function name or None, True when inside the executable)."""
        if addr in self.cache:
            return self.cache[addr]
        mapping = self.module_of(addr)
        result = (None, False)
        if mapping is not None:
            in_exe = mapping[3] == self.executable
            vaddr = self.to_vaddr(mapping, addr)
            label = f"[{os.path.basename(mapping[3])} unnamed]"
            if vaddr is not None:
                table, starts = self.table(mapping)
                k = bisect.bisect_right(starts, vaddr) - 1
                # Unsized entries (resolved libc routines) cover up to the
                # next symbol; sized ones only their own extent.
                if k >= 0 and (table[k][1] == 0 or
                               vaddr < table[k][0] + table[k][1]):
                    label = table[k][2]
            result = (label, in_exe)
        self.cache[addr] = result
        return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("samples")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--callers", type=int, default=12)
    args = parser.parse_args()

    dropped, samples = read_samples(args.samples)
    maps = read_maps(args.samples + ".maps")
    extra = {}
    if os.path.exists(args.samples + ".syms"):
        with open(args.samples + ".syms") as handle:
            for line in handle:
                addr, name = line.split()
                # memmove and memcpy share one implementation.
                key = int(addr, 16)
                extra[key] = f"{extra[key]}/{name}" if key in extra else name
    # /proc/self/maps lists the executable's own mappings first.
    with open(args.samples + ".maps") as handle:
        executable = handle.readline().split(maxsplit=5)[5].strip()
    sym = Symbolizer(maps, extra, executable)

    self_count = collections.Counter()
    total_count = collections.Counter()
    # Per function: (immediate caller, first caller inside the executable).
    callers = collections.defaultdict(collections.Counter)
    for frames in samples:
        if not frames:
            continue
        top, top_in_exe = sym.name(frames[0])
        if top is None:
            top = "[unknown]"
        stack = [(top, top_in_exe)]
        # Return addresses point after the call; look up the call itself.
        if len(frames) > 1 and frames[1] and not top_in_exe:
            leaf = sym.name(frames[1] - 1)
            if leaf[0] is not None and not leaf[0].endswith("unnamed]"):
                stack.append(leaf)
        for ret in frames[2:]:
            caller = sym.name(ret - 1)
            if caller[0] is not None:
                stack.append(caller)
        collapsed = [stack[0]]
        for entry in stack[1:]:
            if entry[0] != collapsed[-1][0]:
                collapsed.append(entry)
        self_count[top] += 1
        for name in {entry[0] for entry in collapsed}:
            total_count[name] += 1
        caller = collapsed[1][0] if len(collapsed) > 1 else "-"
        payer = next((e[0] for e in collapsed[1:] if e[1]), "-")
        callers[top][(caller, payer)] += 1

    n = len(samples)
    if n == 0:
        print("no samples recorded", file=sys.stderr)
        return 1
    print(f"{n} samples ({dropped} dropped), executable {executable}")
    print()
    print("  self%  total%  function")
    for name, count in self_count.most_common(args.top):
        print(f"{100 * count / n:7.2f} {100 * total_count[name] / n:7.2f}  "
              f"{name}")
    print()
    print("callers of the hottest functions (share of the function's self "
          "samples)")
    for name, count in self_count.most_common(args.callers):
        print(f"{100 * count / n:6.2f}%  {name}")
        for (caller, payer), c in callers[name].most_common(3):
            via = "" if payer in (caller, "-") else f"  [in {payer}]"
            print(f"          {100 * c / count:5.1f}%  <- {caller}{via}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
