#!/usr/bin/env python3
"""Docs-drift gate: docs/PROTOCOL.md must cover what the code ships.

The spec is normative, so the failure mode to guard against is not a
wrong sentence (tests cannot read prose) but a *missing* one: somebody
adds a query kind, a field, an error code, or a wire-format constant
and forgets the spec. This script reads the protocol schema
(serve/schema.hpp: each kind's name and byte, each field's JSON key and
binary tag), ``errorCodeName`` in common/result.cpp, and the ``kWire*``
constants and ``WireMsg`` members in serve/wire.hpp, then fails (exit
1, one line per omission) if docs/PROTOCOL.md does not mention every
one. Run from the repo root (ci.sh does).

Deliberately dumb: substring presence, no markdown parsing. The spec
can say anything it likes about a name, but it must say *something*.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return f.read()


def scrape(pattern, source, what):
    found = re.findall(pattern, source, re.MULTILINE)
    assert found, "no %s scraped" % what
    return found


def error_codes():
    source = read("src/common/result.cpp")
    start = source.index("switch", source.index("errorCodeName"))
    body = source[start:source.index("\n}", start)]
    return scrape(r"case ErrorCode::(\w+)", body, "error codes")


def wire_names():
    header = read("src/serve/wire.hpp")
    names = scrape(r"constexpr \w+(?:\s\w+)? (kWire\w+)", header,
                   "kWire constants")
    enum = header[header.index("enum class WireMsg"):]
    enum = enum[: enum.index("};")]
    members = scrape(r"^\s+(\w+) = 0x", enum, "WireMsg members")
    return names + ["WireMsg::" + m for m in members]


def main():
    spec = read("docs/PROTOCOL.md")
    schema = read("src/serve/schema.hpp")
    parts = {"spec": spec}
    wanted = []  # (text that must appear, the part of the spec it is in)
    for name, byte in scrape(r'\{QueryKind::\w+, "(\w+)", (\d+),',
                             schema, "query kinds"):
        wanted += [('"%s"' % name, "spec"), ('%s `"%s"`' % (byte, name),
                                             "spec")]
    for msg, end in (("Request", "**Response tags**"),
                     ("Response", "**Protocol-error frames**")):
        part = "%s tags" % msg
        parts[part] = spec[spec.index("**%s**" % part):spec.index(end)]
        for key, tag in scrape(r'\{"(\w+)", (\d+), &Plan%s::' % msg,
                               schema, msg + " fields"):
            wanted += [("`%s`" % key, "spec"), ("| %s | %s |" % (tag, key),
                                                part)]
    wanted += [(name, "spec") for name in error_codes() + wire_names()]

    missing = [(text, part) for text, part in wanted
               if text not in parts[part]]
    for text, part in missing:
        print("check_docs: docs/PROTOCOL.md (%s) does not mention %s"
              % (part, text), file=sys.stderr)
    if missing:
        return 1
    print("check_docs: docs/PROTOCOL.md covers every query kind, field, "
          "error code, and wire name")
    return 0


if __name__ == "__main__":
    sys.exit(main())
