#!/usr/bin/env python3
"""CI smoke test for the dgp_serve what-if daemon.

Runs dgp_sta on a small synthetic design to get the reference WNS/TNS,
then drives a scripted dgp_serve session over stdin against the same
design and asserts that:

  * the session exits 0 and every scripted command gets its expected
    ok/err response;
  * the first `commit` (no pending moves) reports WNS/TNS matching the
    batch dgp_sta run (the incremental snapshot is the same analysis);
  * an out-of-core `move` is rejected with an `err` line instead of
    desynchronising the timer;
  * hostile `paths` lines (a K far beyond the design's path count, zero,
    negative, non-numeric) get `ok`/`err` answers and the session goes
    on;
  * a known command with the wrong number of arguments answers with its
    usage line (`err usage: ...`), not as an unknown command;
  * `exit` is not a command: with or without arguments it answers as
    an unknown command;
  * the JSONL profiling trace contains the per-request serve.parse /
    serve.update / serve.query spans;
  * the same session at `--domains 2` answers byte for byte the same.

Usage: scripts/serve_smoke.py [--keep]
Must run from the repo root (uses `dune exec`).  Exits non-zero with a
message on violation.
"""

import re
import subprocess
import sys
import tempfile
import os

WORKLOAD = ["--cells", "600", "--seed", "5", "--clock", "700"]


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def main():
    keep = "--keep" in sys.argv

    # reference: batch STA of the same workload
    sta = run(["dune", "exec", "bin/dgp_sta.exe", "--"] + WORKLOAD)
    if sta.returncode != 0:
        fail(f"dgp_sta exited {sta.returncode}:\n{sta.stderr}")
    m = re.search(r"setup: WNS (-?[\d.]+) ps, TNS (-?[\d.]+) ps", sta.stdout)
    if not m:
        fail(f"cannot parse WNS/TNS from dgp_sta output:\n{sta.stdout[:500]}")
    ref_wns, ref_tns = float(m.group(1)), float(m.group(2))
    print(f"serve_smoke: dgp_sta reference wns {ref_wns} tns {ref_tns}")

    trace = tempfile.mktemp(suffix=".jsonl", prefix="serve_smoke_")
    session = "\n".join(
        [
            "commit",
            "move u10 5.0 5.0",
            "commit",
            "move u10 1e9 1e9",  # rejected: leaves the core region
            "paths 4",
            "paths 100000000000",
            "paths 0",
            "paths -3",
            "paths x",
            "stats",
            "place 2 wl",
            "help",
            "move 1 2",
            "slack",
            "paths",
            "place 5",
            "commit extra",
            "exit",
            "exit now",
            "quit",
        ]
    ) + "\n"
    def serve_session(extra):
        serve = run(
            ["dune", "exec", "bin/dgp_serve.exe", "--"] + WORKLOAD + extra,
            input=session,
        )
        if serve.returncode != 0:
            fail(
                f"dgp_serve {' '.join(extra)} exited {serve.returncode}:\n"
                f"stdout:\n{serve.stdout}\nstderr:\n{serve.stderr}"
            )
        return serve

    serve = serve_session(["--trace-out", trace])
    # the same session on a 2-domain pool (pooled full STA, placement and
    # `paths` enumeration) must answer byte for byte the same
    pooled = serve_session(["--domains", "2"])
    if pooled.stdout != serve.stdout:
        fail(
            "replies at --domains 2 differ from the sequential session:\n"
            f"{pooled.stdout}\n--- vs ---\n{serve.stdout}"
        )
    lines = [l for l in serve.stdout.splitlines() if l.strip()]
    responses = [l for l in lines if not l.startswith("path ")]
    print("serve_smoke: session transcript ('path' lines omitted):")
    for l in responses:
        print(f"  {l}")

    if len(responses) != 20:
        fail(f"expected 20 response lines, got {len(responses)}")

    # 1: commit with no pending moves == the batch analysis
    m = re.match(r"ok wns (-?[\d.]+) tns (-?[\d.]+) endpoints (\d+)", responses[0])
    if not m:
        fail(f"unexpected first commit response: {responses[0]}")
    wns, tns = float(m.group(1)), float(m.group(2))
    # dgp_sta prints %.1f, the daemon %.3f: allow the rounding quantum
    if abs(wns - ref_wns) > 0.051 or abs(tns - ref_tns) > 0.051:
        fail(
            f"daemon commit (wns {wns} tns {tns}) disagrees with "
            f"dgp_sta (wns {ref_wns} tns {ref_tns})"
        )

    expectations = [
        (1, r"ok queued u10"),
        (2, r"ok wns -?[\d.]+ tns -?[\d.]+ endpoints \d+ pins \d+ "
            r"changed \d+ nets \d+"),
        (3, r"err .*core region"),
        (4, r"ok paths 4$"),
        (5, r"ok paths \d+$"),
        (6, r"err paths expects a positive K$"),
        (7, r"err paths expects a positive K$"),
        (8, r"err paths expects a positive K$"),
        (9, r"ok cells \d+ nets \d+ pins \d+ wns "),
        (10, r"ok iterations \d+ hpwl "),
        (11, r"ok commands: "),
        (12, r"err usage: move <cell> <x> <y>$"),
        (13, r"err usage: slack <pin>$"),
        (14, r"err usage: paths <K>$"),
        (15, r"err usage: place <iters> <mode>$"),
        (16, r"err usage: commit$"),
        (17, r"err unknown command exit \(try help\)$"),
        (18, r"err unknown command exit \(try help\)$"),
        (19, r"ok bye"),
    ]
    for idx, pat in expectations:
        if not re.match(pat, responses[idx]):
            fail(f"response {idx} {responses[idx]!r} does not match {pat!r}")

    npaths = len([l for l in lines if l.startswith("path ")])
    nhuge = int(responses[5].split()[2])
    if nhuge < 4 or npaths != 4 + nhuge:
        fail(
            f"expected 4 + {nhuge} 'path' lines from `paths 4` and "
            f"`paths 100000000000`, got {npaths}"
        )

    # incremental commit after one move must re-evaluate a strict subset
    m = re.search(r"pins (\d+)", responses[2])
    stats_pins = re.search(r"ok cells \d+ nets \d+ pins (\d+)", responses[9])
    if m and stats_pins and int(m.group(1)) >= int(stats_pins.group(1)):
        fail(
            f"incremental commit re-evaluated {m.group(1)} pins, "
            f"not a strict subset of {stats_pins.group(1)}"
        )

    # per-request spans present in the JSONL trace
    with open(trace) as f:
        tr = f.read()
    for k in ("serve.parse", "serve.update", "serve.query"):
        if f'"k":"{k}"' not in tr:
            fail(f"span {k} missing from trace {trace}")
    if not keep:
        os.unlink(trace)

    print("serve_smoke: OK (responses, WNS/TNS agreement, spans all good)")


if __name__ == "__main__":
    main()
