#!/usr/bin/env python3
"""Validate a Prometheus text-exposition (v0.0.4) file.

Every non-comment line must parse as `name[{labels}] value`; HELP/TYPE
preambles must name a metric that actually appears, and TYPE must be
one of the spec's kinds. No (name, labels) sample may appear twice, and
each TYPE-declared family must be one contiguous group: its samples
(`name`, or `name_bucket`/`_sum`/`_count`/... for histograms and
summaries) follow its TYPE line with no other family in between, and
nothing of it appears anywhere else. Optionally assert a counter's
value, and that specific metrics are present at all:

    check_prometheus.py FILE [--counter-at-least NAME MIN]
                             [--require NAME]...

Used by CI against both the bench --obs-dir exposition and a live scrape of
`lcp serve --http-port`.
"""

import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
VALUE = r"(?:[-+]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?|[-+]?Inf|NaN)"
SAMPLE = re.compile(rf"^({NAME})(\{{{LABEL}(?:,{LABEL})*\}})? {VALUE}$")
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
SUFFIXES = ("_bucket", "_sum", "_count", "_total", "_created", "_info")
HELP = re.compile(rf"^# HELP ({NAME}) .*$")
TYPE = re.compile(rf"^# TYPE ({NAME}) (counter|gauge|histogram|summary|untyped)$")


def family_of(name, typed):
    """The TYPE-declared family a sample name belongs to, if any."""
    if name in typed:
        return name
    for suffix in SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in typed:
            return name[: -len(suffix)]
    return None


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    path = args[0]
    want_counter = None
    required = []
    i = 1
    while i < len(args):
        if args[i] == "--counter-at-least" and i + 2 < len(args):
            want_counter = (args[i + 1], float(args[i + 2]))
            i += 3
        elif args[i] == "--require" and i + 1 < len(args):
            required.append(args[i + 1])
            i += 2
        else:
            sys.exit(f"unknown or incomplete argument: {args[i]}")

    with open(path) as f:
        lines = [line.rstrip("\n") for line in f]
    typed = {m.group(1) for m in map(TYPE.match, lines) if m}
    declared, seen, samples = set(), set(), {}
    keys, closed = set(), set()
    current = None  # the family whose TYPE line opened the current group
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            m = HELP.match(line) or TYPE.match(line)
            if not m:
                sys.exit(f"{path}:{lineno}: malformed comment: {line!r}")
            declared.add(m.group(1))
            if line.startswith("# TYPE"):
                if m.group(1) in closed or m.group(1) == current:
                    sys.exit(f"{path}:{lineno}: family {m.group(1)} declared twice")
                if current is not None:
                    closed.add(current)
                current = m.group(1)
            continue
        m = SAMPLE.match(line)
        if not m:
            sys.exit(f"{path}:{lineno}: malformed sample: {line!r}")
        name = m.group(1)
        key = (name, tuple(sorted(LABEL_PAIR.findall(m.group(2) or ""))))
        if key in keys:
            sys.exit(f"{path}:{lineno}: duplicate sample: {line!r}")
        keys.add(key)
        family = family_of(name, typed)
        if family is not None and family != current:
            sys.exit(f"{path}:{lineno}: sample of family {family} outside its "
                     f"TYPE group: {line!r}")
        seen.add(name)
        if name not in samples:
            samples[name] = float(line.split()[-1])

    if not seen:
        sys.exit(f"{path}: no samples at all")
    # every HELP/TYPE must be followed by at least one sample of that
    # metric (histogram/summary samples carry _bucket/_sum/... suffixes)
    for name in declared:
        if not any(s == name or s.startswith(name + "_") for s in seen):
            sys.exit(f"{path}: declared but never sampled: {name}")

    for name in required:
        if name not in seen:
            sys.exit(f"{path}: required metric missing: {name}")

    if want_counter is not None:
        name, least = want_counter
        if name not in samples:
            sys.exit(f"{path}: counter {name} missing")
        if samples[name] < least:
            sys.exit(f"{path}: {name} = {samples[name]}, expected >= {least}")

    print(f"{path}: {len(seen)} metrics, all lines valid")


if __name__ == "__main__":
    main()
