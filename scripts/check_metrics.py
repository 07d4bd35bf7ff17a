#!/usr/bin/env python3
"""Smoke-test the live `/metrics` scrape endpoint.

Two modes, both stdlib-only (CI has no network beyond localhost):

* `--spawn CMD...` — run CMD with `DMML_METRICS_ADDR=127.0.0.1:0` and
  `DMML_METRICS_HOLD_MS` set so the process stays scrapeable, parse the
  `metrics listening on http://ADDR/metrics` line it prints, then fetch
  and validate both endpoints while it is alive.
* `ADDR` — validate an already-running endpoint at `host:port`.

Validation: `/metrics` must return HTTP 200 with a Prometheus text
exposition (`# TYPE` comments and `name[{labels}] value` samples, every
value a parseable float, every name matching `[a-zA-Z_:][a-zA-Z0-9_:]*`)
whose families are all counter, gauge or summary, each declared once,
with every summary carrying its p50/p95/p99 quantiles, `_sum` and
`_count`; `/stats.json` must return HTTP 200 with a JSON object. Exit 0
on success.

With `--debug` the flight-recorder endpoints are validated too:
`/debug/requests` and `/debug/slow` must be HTTP 200 `application/json`
with their required fields (each record's frame `layout` is `text` or
`slab`), and `/debug/trace?id=` must serve a Chrome
trace for a recorded id (404 for an unknown one). Only meaningful
against a server that mounts a flight recorder (the scoring server);
plain `trace_run` invocations must not pass `--debug`.

Usage:
  scripts/check_metrics.py --spawn cargo run --release --example trace_run
  scripts/check_metrics.py 127.0.0.1:9184
  scripts/check_metrics.py --debug 127.0.0.1:9184
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request

HOLD_MS = "20000"
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LISTEN_RE = re.compile(r"metrics listening on http://([^/\s]+)/metrics")
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def fetch(addr: str, path: str) -> str:
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=10) as resp:
        if resp.status != 200:
            raise SystemExit(f"GET {path}: HTTP {resp.status}")
        return resp.read().decode("utf-8")


def fetch_json(addr: str, path: str):
    """Fetch a /debug endpoint: require 200, application/json, parseable."""
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=10) as resp:
        if resp.status != 200:
            raise SystemExit(f"GET {path}: HTTP {resp.status}")
        ctype = resp.headers.get("Content-Type", "")
        if "application/json" not in ctype:
            raise SystemExit(f"GET {path}: content type {ctype!r}, want application/json")
        body = resp.read().decode("utf-8")
    try:
        return json.loads(body)
    except json.JSONDecodeError as e:
        raise SystemExit(f"GET {path}: body is not valid JSON: {e}")


def require_fields(path: str, obj: dict, fields) -> None:
    missing = [f for f in fields if f not in obj]
    if missing:
        raise SystemExit(f"GET {path}: missing required fields {missing}")


def check_debug(addr: str) -> None:
    """Validate the three flight-recorder endpoints."""
    reqs = fetch_json(addr, "/debug/requests?n=16")
    require_fields("/debug/requests", reqs, ["requests", "capacity"])
    if not isinstance(reqs["requests"], list):
        raise SystemExit("/debug/requests: 'requests' is not a list")
    for rec in reqs["requests"]:
        require_fields("/debug/requests", rec,
                       ["id", "tenant", "total_ns", "phases", "cache_hit",
                        "bytes_in", "bytes_out", "layout", "spilled_bytes",
                        "faulted_bytes"])
        if not isinstance(rec["phases"], dict):
            raise SystemExit("/debug/requests: record 'phases' is not an object")
        if rec["layout"] not in ("text", "slab"):
            raise SystemExit(f"/debug/requests: record layout {rec['layout']!r}, "
                             "want 'text' or 'slab'")

    slow = fetch_json(addr, "/debug/slow")
    require_fields("/debug/slow", slow,
                   ["threshold_ns", "self_tuned", "samples", "slow"])
    if not isinstance(slow["slow"], list):
        raise SystemExit("/debug/slow: 'slow' is not a list")

    traced = 0
    if reqs["requests"]:
        trace = fetch_json(addr, f"/debug/trace?id={reqs['requests'][0]['id']}")
        require_fields("/debug/trace", trace, ["traceEvents"])
        traced = len(trace["traceEvents"])
    # An id the recorder cannot know must 404, not 200-with-garbage.
    try:
        urllib.request.urlopen(f"http://{addr}/debug/trace?id=999999999999", timeout=10)
        raise SystemExit("/debug/trace with unknown id did not return 404")
    except urllib.error.HTTPError as e:
        if e.code != 404:
            raise SystemExit(f"/debug/trace with unknown id: HTTP {e.code}, want 404")
    slabs = sum(rec["layout"] == "slab" for rec in reqs["requests"])
    print(f"ok: /debug/requests ({len(reqs['requests'])} records, {slabs} slab), "
          f"/debug/slow ({len(slow['slow'])} slow), "
          f"/debug/trace ({traced} events)")


KINDS = ("counter", "gauge", "summary")
QUANTILES = {"0.5", "0.95", "0.99"}
QUANTILE_RE = re.compile(r'quantile="([^"]*)"')


def check_prometheus(body: str) -> int:
    """Validate exposition-format conformance; return the sample count.

    Beyond the line syntax: every `# TYPE` is counter, gauge or summary,
    no family is declared twice, and every summary carries its three
    quantile lines (0.5, 0.95, 0.99) plus `_sum` and `_count`.
    """
    samples = 0
    kinds = {}
    parts_seen = {}  # summary family -> set of quantiles / "sum" / "count"
    for line in body.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[:2] == ["#", "TYPE"]:
                if len(parts) != 4 or not NAME_RE.match(parts[2]):
                    raise SystemExit(f"malformed TYPE comment: {line!r}")
                name, kind = parts[2], parts[3]
                if kind not in KINDS:
                    raise SystemExit(f"TYPE {kind!r} is not one of {KINDS}: {line!r}")
                if name in kinds:
                    raise SystemExit(f"family {name} declared twice")
                kinds[name] = kind
                if kind == "summary":
                    parts_seen[name] = set()
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            raise SystemExit(f"malformed sample line: {line!r}")
        try:
            float(m.group(3))
        except ValueError:
            raise SystemExit(f"unparseable sample value: {line!r}")
        samples += 1
        name = m.group(1)
        if kinds.get(name) == "summary":
            q = QUANTILE_RE.search(m.group(2) or "")
            if q:
                parts_seen[name].add(q.group(1))
        elif name not in kinds:
            for suffix in ("sum", "count"):
                base = name[: -len(suffix) - 1]
                if name.endswith("_" + suffix) and base in parts_seen:
                    parts_seen[base].add(suffix)
    for name, seen in parts_seen.items():
        missing = sorted((QUANTILES | {"sum", "count"}) - seen)
        if missing:
            raise SystemExit(f"summary {name} lacks {missing}")
    return samples


def validate(addr: str, wait_s: float = 0.0, debug: bool = False) -> None:
    # Stats are recorded as the run progresses, so right after startup the
    # registry may be empty; poll until samples appear (or wait_s elapses).
    deadline = time.monotonic() + wait_s
    while True:
        n = check_prometheus(fetch(addr, "/metrics"))
        if n > 0 or time.monotonic() >= deadline:
            break
        time.sleep(0.5)
    if n == 0:
        raise SystemExit("no samples in /metrics body")
    stats = json.loads(fetch(addr, "/stats.json"))
    if not isinstance(stats, dict):
        raise SystemExit("/stats.json did not return a JSON object")
    print(f"ok: {n} samples on /metrics, {len(stats)} top-level keys on /stats.json")
    if debug:
        check_debug(addr)


def spawn_and_validate(cmd: list) -> None:
    env = dict(os.environ, DMML_METRICS_ADDR="127.0.0.1:0", DMML_METRICS_HOLD_MS=HOLD_MS)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    addr = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            sys.stdout.write(line)
            m = LISTEN_RE.search(line)
            if m:
                addr = m.group(1)
                break
        if addr is None:
            raise SystemExit(f"{cmd[0]} exited without printing the metrics address")
        validate(addr, wait_s=15.0)
    finally:
        proc.terminate()
        # Drain remaining output so the child never blocks on a full pipe.
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def main() -> None:
    args = sys.argv[1:]
    debug = "--debug" in args
    if debug:
        args.remove("--debug")
    if not args:
        raise SystemExit(__doc__)
    if args[0] == "--spawn":
        if len(args) < 2:
            raise SystemExit("--spawn needs a command to run")
        if debug:
            raise SystemExit("--debug requires a running server (ADDR mode)")
        spawn_and_validate(args[1:])
    else:
        validate(args[0], debug=debug)


if __name__ == "__main__":
    main()
