#!/usr/bin/env python3
"""List every `val` in lib/**/*.mli that nothing calls outside its module.

A `val` counts as used when code outside its own .ml/.mli names it:
qualified (`Wire.x`, `Obs.Trace.x`), through a module alias
(`module T = Obs.Trace` then `T.x`), or bare in a file that opens the
module (`open M`, `let open M in`, `include M`, `M.( ... )`). Comments
and string literals are ignored. Callers are searched for in lib, bin,
bench, examples and perfbench; test/ is searched only to tag an unused
entry "tests only" rather than "no caller".

Each unused entry must be listed in ci/exports_allowed.txt as

    Module.name  <reason>

where the reason starts with one of "paper API" (a PAPER_MAP.md row or
a Table 1 / lower-bound helper), "test oracle" (a reference tests
compare against) or "test hook" (a deterministic hook for tests).
Values inside a nested signature are named `Module.Sub.name`; the obs
library's modules are named `Obs.Module`.

    python3 ci/dead_exports.py

Exits non-zero on an unused entry that is not allowlisted, on an
allowlist line whose export no longer exists, and on a malformed
allowlist line.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]
TEST_DIRS = ["test"]
ALLOWLIST = os.path.join("ci", "exports_allowed.txt")
REASONS = ("paper API", "test oracle", "test hook")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|\d{3}|x[0-9a-fA-F]{2})|[^\\'])'")


def strip(src):
    """Blank out OCaml comments (nested) and string/char literals."""
    out, i, n, depth = [], 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif c == "{" and QUOTED.match(src, i):
            tag = QUOTED.match(src, i).group(1)
            end = src.find("|" + tag + "}", i)
            i = n if end < 0 else end + len(tag) + 2
            if not depth:
                out.append('""')
        elif c == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
            if not depth:
                out.append("' '")
        else:
            if not depth:
                out.append(c)
            elif c == "\n":
                out.append(c)
            i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def sources(dirs):
    for d in dirs:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith((".", "_"))]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def exports():
    """(key, qualifier, name, own module, mli path, line) per `val`."""
    found = []
    for path in sources(["lib"]):
        if not path.endswith(".mli"):
            continue
        top = module_name(path)
        prefix = "Obs." if os.sep + "obs" + os.sep in path else ""
        text = strip(open(path).read())
        stack = []  # (module name or None) per open sig/struct/object
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*:\s*sig\b|\b(sig|struct|object)\b|\bend\b"
                             r"|\bval\s+([a-z_][A-Za-z0-9_']*)", text):
            if m.group(1):
                stack.append(m.group(1))
            elif m.group(2):
                stack.append(None)
            elif m.group(3):
                path_mods = [s for s in stack if s]
                qual = path_mods[-1] if path_mods else top
                key = prefix + ".".join([top] + path_mods + [m.group(3)])
                line = text.count("\n", 0, m.start()) + 1
                found.append((key, qual, m.group(3), top, path, line))
            elif stack:
                stack.pop()
    return found


class Corpus:
    def __init__(self, paths):
        self.files = []
        for p in paths:
            text = strip(open(p).read())
            self.files.append((module_name(p), text, set(WORD.findall(text))))

    def uses(self, qual, name, own):
        for mod, text, words in self.files:
            if mod == own or name not in words:
                continue
            quals = {qual} | set(re.findall(
                rf"\bmodule\s+([A-Z]\w*)\s*=\s*(?:[A-Z]\w*\.)*{qual}\b", text))
            alt = "|".join(sorted(quals))
            if re.search(rf"\b(?:{alt})\s*\.\s*{re.escape(name)}\b", text):
                return True
            opened = rf"(?:\bopen!?\s+|\blet\s+open!?\s+|\binclude\s+)(?:[A-Z]\w*\.)*(?:{alt})\b" \
                     rf"|\b(?:{alt})\.[(\[{{]"
            if re.search(opened, text) and re.search(rf"(?<![.\w']){re.escape(name)}\b", text):
                return True
        return False


def read_allowlist():
    allowed, bad = {}, []
    path = os.path.join(ROOT, ALLOWLIST)
    if not os.path.exists(path):
        return allowed, bad
    for lineno, line in enumerate(open(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) < 2 or not parts[1].startswith(REASONS):
            bad.append(f"{ALLOWLIST}:{lineno}: needs 'Module.name  reason', "
                       f"reason starting with one of {', '.join(REASONS)}")
        else:
            allowed[parts[0]] = lineno
    return allowed, bad


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    callers = Corpus(sources(CALLER_DIRS))
    tests = Corpus(sources(TEST_DIRS))
    allowed, errors = read_allowlist()
    found = exports()
    unused = 0
    for key, qual, name, own, path, line in found:
        if callers.uses(qual, name, own):
            continue
        unused += 1
        tag = "tests only" if tests.uses(qual, name, own) else "no caller"
        if key not in allowed:
            errors.append(f"{os.path.relpath(path, ROOT)}:{line}: {key}  ({tag})")
    keys = {f[0] for f in found}
    for key, lineno in allowed.items():
        if key not in keys:
            errors.append(f"{ALLOWLIST}:{lineno}: {key} is no longer exported")
    for e in errors:
        print(e)
    print(f"{len(found)} exported vals, {unused} without a caller outside "
          f"their module, {len(allowed)} allowlisted, {len(errors)} problem(s)")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
