#!/usr/bin/env python3
"""ISA-leak guard: no linker-merged function of a library may use AVX.

Usage:
    tools/check_isa_leaks.py path/to/libdrcshap_core.a

The SIMD kernels are selected per function at run time (cpuid), so the
rest of the library must stay baseline x86-64. A weak or vague-linkage
symbol (`nm` type W/V: inline functions, template instantiations) may be
defined by several object files, and the linker keeps whichever copy it
meets first. If any of those copies was compiled for AVX, the binary can
end up running VEX-encoded code on a host whose cpuid check said no. This
script disassembles every such symbol in the archive (or object) and
fails when one of them contains an instruction whose mnemonic starts with
`v` — the VEX/EVEX-encoded forms (vmovsd, vxorpd, vfmadd..., vzeroupper).

Functions with internal linkage are not checked: each object file keeps
its own copy, so a per-function `target("avx2")` kernel and the static
helpers only it calls cannot be swapped for one another.

Exit status: 0 = clean, 1 = leaks found (one line per symbol and object),
2 = usage/IO error, 77 = nm or objdump missing, or not an x86 object (the
ctest SKIP_RETURN_CODE).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

SKIP = 77

# Instruction prefixes objdump prints before the mnemonic.
PREFIXES = {
    "lock", "rep", "repe", "repz", "repne", "repnz", "bnd", "notrack",
    "data16", "addr32", "rex", "rex.w", "cs", "ds", "es", "fs", "gs", "ss",
}

SYMBOL_RE = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
MEMBER_RE = re.compile(r"^(\S+):\s+file format (\S+)$")
INSN_RE = re.compile(r"^\s+[0-9a-f]+:\t(.*)$")


def merged_symbols(nm: str, path: str) -> set[tuple[str, str]]:
    """(object, symbol) pairs of every defined weak or vague-linkage symbol."""
    out = subprocess.run([nm, "--defined-only", "-A", path], check=True,
                         capture_output=True, text=True).stdout
    found = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 3 or fields[1] not in ("W", "V"):
            continue
        # "lib.a:member.o:address" for archives, "file.o:address" otherwise.
        location = fields[0].rsplit(":", 1)[0]
        member = location.rsplit(":", 1)[-1]
        found.add((member, fields[2]))
    return found


def vex_mnemonics(objdump: str, path: str) -> tuple[dict, set[str]]:
    """Per (object, symbol): the sorted set of VEX mnemonics it contains.

    Also returns the object file formats seen, so a non-x86 build skips.
    """
    out = subprocess.run([objdump, "-d", "--no-show-raw-insn", path],
                         check=True, capture_output=True, text=True).stdout
    member, symbol = None, None
    formats: set[str] = set()
    vex: dict[tuple[str, str], set[str]] = {}
    for line in out.splitlines():
        m = MEMBER_RE.match(line)
        if m:
            member, symbol = m.group(1), None
            formats.add(m.group(2))
            continue
        m = SYMBOL_RE.match(line)
        if m:
            # Split-off cold blocks belong to their parent function.
            symbol = m.group(1).split(".cold")[0]
            continue
        m = INSN_RE.match(line)
        if not m or member is None or symbol is None:
            continue
        tokens = [t for t in m.group(1).split() if t not in PREFIXES]
        if tokens and tokens[0].startswith("v"):
            vex.setdefault((member, symbol), set()).add(tokens[0])
    return vex, formats


def demangle(names: list[str]) -> list[str]:
    cxxfilt = shutil.which("c++filt")
    if cxxfilt is None:
        return names
    out = subprocess.run([cxxfilt], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_isa_leaks.py LIBRARY_OR_OBJECT", file=sys.stderr)
        return 2
    path = argv[1]
    nm, objdump = shutil.which("nm"), shutil.which("objdump")
    if nm is None or objdump is None:
        print("skip: nm or objdump not found")
        return SKIP
    try:
        merged = merged_symbols(nm, path)
        vex, formats = vex_mnemonics(objdump, path)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: cannot inspect {path}: {err}", file=sys.stderr)
        return 2
    if not formats or not all("x86-64" in f or "i386" in f for f in formats):
        print(f"skip: not an x86 object ({', '.join(sorted(formats))})")
        return SKIP
    leaks = sorted(key for key in vex if key in merged)
    if not leaks:
        print(f"ok: {len(merged)} weak/vague-linkage symbols, none uses AVX")
        return 0
    names = demangle([symbol for _, symbol in leaks])
    for key, name in zip(leaks, names):
        shown = sorted(vex[key])
        more = f" (+{len(shown) - 4} more)" if len(shown) > 4 else ""
        print(f"LEAK {key[0]}: {name}: {', '.join(shown[:4])}{more}")
    print(f"{len(leaks)} weak/vague-linkage symbol(s) contain VEX-encoded "
          "instructions; a linker may keep these copies on any host")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
