#!/usr/bin/env python3
"""Multi-tenant load generator for the scoring server (`dm-serve`).

Speaks the server's length-prefixed protocol (4-byte big-endian frame
length, then a UTF-8 JSON request — see `crates/serve/src/protocol.rs`)
with N concurrent tenants, each on its own connection. Every tenant scores
the same program family with tenant-specific data, alternating two input
size classes so the run exercises plan-cache hits AND misses, and
optionally marks requests batchable so concurrent vector scorings
coalesce.

With `--rows R --cols C` every request is instead one `X %*% v` scoring of
an R x C model, and — exactly as the Rust client decides — a request whose
matrices total 16 384 values or more goes out as a **slab frame**: the same
JSON document as a header, with each matrix's values as raw little-endian
f64 after it. This file is the format's second implementation, so the
server's slab decoder is exercised by bytes its own encoder did not
produce; the scores that come back are checked against X.v computed here.
With `--batch` too, those scorings are batchable: tenants sending the same
model coalesce into one stacked product, and each score is still checked.
With `--fragment N` every frame goes out in N-byte pieces, so the server's
streaming reader meets frames cut at arbitrary points.

Two ways to point it at a server, both stdlib-only:

* `--spawn CMD...` — run CMD (typically
  `cargo run --release --example scoring_server`) with
  `DMML_SERVE_ADDR=127.0.0.1:0`, parse the `scoring listening on ADDR`
  banner, run the load, then terminate it.
* `--addr HOST:PORT` — load an already-running server.

Exit code 0 iff every request got a well-formed, successful response
(`protocol errors: 0`). Prints a one-line summary plus per-tenant p50/p99
latency, suitable for the warn-only CI smoke job and for eyeballing E17.

Error lines include the server-assigned request id (`rid`) so a failed
request can be looked up in the server's flight recorder
(`/debug/requests`, `/debug/trace?id=<rid>`). With `--slow MS` (plus
`--metrics HOST:PORT` pointing at the server's metrics endpoint), any
request slower than MS milliseconds gets its server-side per-phase
breakdown printed after the run, fetched from `/debug/requests`.

Usage:
  scripts/loadgen.py --tenants 4 --requests 25 --spawn \\
      cargo run --release --example scoring_server
  scripts/loadgen.py --addr 127.0.0.1:7878 --tenants 8 --requests 50 --batch
  scripts/loadgen.py --addr 127.0.0.1:7878 --metrics 127.0.0.1:9100 --slow 50
  scripts/loadgen.py --addr 127.0.0.1:7878 --tenants 2 --requests 10 \\
      --rows 64 --cols 2048 --fragment 4096
  scripts/loadgen.py --addr 127.0.0.1:7878 --tenants 4 --requests 10 \
      --rows 64 --cols 2048 --batch --fragment 4096
"""

import argparse
import array
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request

BANNER = "scoring listening on "


# The slab frame layout of crates/serve/src/protocol.rs.
SLAB_MAGIC = 0xD5
SLAB_VERSION = 1
SLAB_PREAMBLE = struct.Struct("<BBI")  # magic, version, header byte length
SLAB_MIN_ELEMS = 16384


def to_wire(slab: array.array) -> bytes:
    """The slab is little-endian on every host, so a big-endian one swaps."""
    if sys.byteorder == "big":
        slab = array.array("d", slab)
        slab.byteswap()
    return slab.tobytes()


def from_wire(raw: bytes) -> array.array:
    slab = array.array("d")
    slab.frombytes(raw)
    if sys.byteorder == "big":
        slab.byteswap()
    return slab


def encode_payload(req: dict) -> bytes:
    """A request's frame payload: JSON text, or a slab frame when its
    matrices total SLAB_MIN_ELEMS values or more."""
    inputs = req.get("inputs", {})
    if sum(len(m.get("data", ())) for m in inputs.values()) < SLAB_MIN_ELEMS:
        return json.dumps(req).encode("utf-8")
    slab = array.array("d")
    header = dict(req, inputs={})
    for name, m in inputs.items():
        if "data" in m:
            # References tile the slab in document order.
            header["inputs"][name] = dict(m, data={"slab": len(slab)})
            slab.extend(m["data"])
        else:
            header["inputs"][name] = m
    text = json.dumps(header).encode("utf-8")
    return SLAB_PREAMBLE.pack(SLAB_MAGIC, SLAB_VERSION, len(text)) + text + to_wire(slab)


def decode_payload(body: bytes) -> dict:
    """A response's frame payload as a dict, whichever layout it came in
    (the server answers in the layout of the request)."""
    if body[:1] != bytes([SLAB_MAGIC]):
        return json.loads(body.decode("utf-8"))
    _, version, text_len = SLAB_PREAMBLE.unpack_from(body)
    if version != SLAB_VERSION:
        raise ValueError(f"slab frame version {version}")
    text_end = SLAB_PREAMBLE.size + text_len
    resp = json.loads(body[SLAB_PREAMBLE.size:text_end].decode("utf-8"))
    ref = resp.get("data")
    if isinstance(ref, dict):
        slab = from_wire(body[text_end:])
        n = resp["rows"] * resp["cols"]
        if ref["slab"] != 0 or n != len(slab):
            raise ValueError(f"slab reference {ref} x {n} does not tile {len(slab)} values")
        resp["data"] = slab.tolist()
    return resp


def send_frame(sock: socket.socket, payload: bytes, fragment=None) -> None:
    """Send one frame: in one `sendall`, or with `fragment` in pieces of
    that many bytes, each its own send, so the server's reader sees the
    frame arrive split at arbitrary points (a value, the header, even the
    length prefix cut in two)."""
    frame = struct.pack(">I", len(payload)) + payload
    if not fragment:
        sock.sendall(frame)
        return
    for at in range(0, len(frame), fragment):
        sock.sendall(frame[at:at + fragment])


def recv_frame(sock: socket.socket) -> bytes:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("server closed mid-header")
        header += chunk
    (n,) = struct.unpack(">I", header)
    body = bytearray()
    while len(body) < n:
        chunk = sock.recv(min(1 << 20, n - len(body)))
        if not chunk:
            raise ConnectionError("server closed mid-frame")
        body += chunk
    return bytes(body)


def score_request(tenant: str, seq: int, batch: bool) -> dict:
    """Alternate two size classes of the same program: even sequence
    numbers share one plan-cache entry, odd ones another. In batch mode
    the program is `X %*% v` — root matmul against the vector, which is
    what the server's micro-batcher coalesces — and the model matrix X
    depends only on the sequence number, so concurrent tenants at the
    same sequence share bit-identical context and may land in one gemm.
    """
    n = 64 if seq % 2 == 0 else 192
    d = 8
    x = [((i * 13 + seq * 7) % 23) * 0.31 - 2.0 for i in range(n * d)]
    v = [((i * 5 + seq) % 11) * 0.17 - 0.6 for i in range(d)]
    req = {
        "tenant": tenant,
        "cmd": "score",
        "program": "X %*% v" if batch else "t(X) %*% (X %*% v)",
        "inputs": {
            "X": {"rows": n, "cols": d, "data": x},
            "v": {"rows": d, "cols": 1, "data": v},
        },
    }
    if batch:
        req["batch"] = True
    return req


# (rows, cols, seq parity) -> (request inputs, expected X.v). Two datasets
# per shape, shared by every tenant thread: building 131 072 floats in pure
# Python per request would measure the generator, not the server.
_WIDE = {}


def wide_request(tenant: str, seq: int, rows: int, cols: int, batch: bool):
    """One `X %*% v` scoring of a rows x cols model, batchable with `batch`,
    with the scores a correct server must return."""
    key = (rows, cols, seq % 2)
    if key not in _WIDE:
        x = [((i * 13 + key[2] * 7) % 23) * 0.31 - 2.0 for i in range(rows * cols)]
        v = [((i * 5 + key[2]) % 11) * 0.17 - 0.6 for i in range(cols)]
        want = [sum(a * b for a, b in zip(x[r * cols:(r + 1) * cols], v)) for r in range(rows)]
        inputs = {
            "X": {"rows": rows, "cols": cols, "data": x},
            "v": {"rows": cols, "cols": 1, "data": v},
        }
        _WIDE[key] = (inputs, want)
    inputs, want = _WIDE[key]
    req = {"tenant": tenant, "cmd": "score", "program": "X %*% v", "inputs": inputs}
    if batch:
        req["batch"] = True
    return req, want


class TenantStats:
    def __init__(self):
        self.latencies_ms = []
        self.cache_hits = 0
        self.batched = 0
        self.errors = []
        # (rid, seq, latency_ms) for requests over the --slow threshold.
        self.slow = []


def run_tenant(addr, tenant: str, requests: int, batch: bool, stats: TenantStats,
               slow_ms=None, shape=None, fragment=None) -> None:
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            if fragment:
                # Without this, Nagle's algorithm would merge the pieces.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, encode_payload({"tenant": tenant, "cmd": "ping"}), fragment)
            pong = decode_payload(recv_frame(sock))
            if pong.get("kind") != "pong":
                stats.errors.append(f"bad pong: {pong}")
                return
            for seq in range(requests):
                want = None
                if shape:
                    req, want = wide_request(tenant, seq, *shape, batch)
                else:
                    req = score_request(tenant, seq, batch)
                payload = encode_payload(req)
                t0 = time.monotonic()
                send_frame(sock, payload, fragment)
                resp = decode_payload(recv_frame(sock))
                lat_ms = (time.monotonic() - t0) * 1e3
                stats.latencies_ms.append(lat_ms)
                rid = resp.get("rid")  # server-assigned flight-recorder id
                if slow_ms is not None and lat_ms > slow_ms:
                    stats.slow.append((rid, seq, lat_ms))
                if not resp.get("ok"):
                    stats.errors.append(f"seq {seq} rid {rid}: {resp.get('error')}")
                    continue
                if resp.get("kind") != "matrix" or "data" not in resp:
                    stats.errors.append(f"seq {seq} rid {rid}: malformed response {resp}")
                    continue
                # Summation order may differ from the server's kernel by ulps.
                if want is not None and not (
                        len(resp["data"]) == len(want)
                        and all(abs(g - w) <= 1e-9 * max(1.0, abs(w))
                                for g, w in zip(resp["data"], want))):
                    stats.errors.append(f"seq {seq} rid {rid}: wrong scores")
                    continue
                stats.cache_hits += resp.get("cache") == "hit"
                stats.batched += bool(resp.get("batched"))
    except (OSError, ValueError, struct.error) as e:
        stats.errors.append(f"{type(e).__name__}: {e}")


def quantile(sorted_vals, q):
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def fetch_debug_requests(metrics_addr: str, n: int):
    """Fetch recent flight-recorder records and index them by request id."""
    url = f"http://{metrics_addr}/debug/requests?n={n}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        body = json.loads(resp.read().decode("utf-8"))
    return {rec["id"]: rec for rec in body.get("requests", [])}


def print_slow_breakdown(metrics_addr: str, slow, total_requests: int) -> None:
    """For each client-side slow request, print the server's per-phase
    latency attribution from /debug/requests so queue-, compile- and
    batch-wait-dominated requests are distinguishable at a glance."""
    try:
        # Over-fetch: pings and other tenants' traffic consume rids too.
        records = fetch_debug_requests(metrics_addr, total_requests * 2 + 32)
    except (OSError, ValueError) as e:
        print(f"slow: could not fetch /debug/requests from {metrics_addr}: {e}",
              file=sys.stderr)
        return
    for tenant, rid, seq, lat_ms in slow:
        rec = records.get(rid)
        if rec is None:
            print(f"slow: {tenant} seq {seq} rid {rid} {lat_ms:.2f} ms "
                  f"(not in flight recorder — evicted or rid missing)")
            continue
        phases = rec.get("phases", {})
        parts = ", ".join(
            f"{name} {ns / 1e6:.2f}ms"
            for name, ns in sorted(phases.items(), key=lambda kv: -kv[1])
            if ns
        )
        cache = "hit" if rec.get("cache_hit") else "miss"
        print(f"slow: {tenant} seq {seq} rid {rid} {lat_ms:.2f} ms client / "
              f"{rec.get('total_ns', 0) / 1e6:.2f} ms server (cache {cache}): {parts}")


def run_load(addr, tenants: int, requests: int, batch: bool,
             slow_ms=None, metrics_addr=None, shape=None, fragment=None) -> int:
    per_tenant = {f"tenant-{i}": TenantStats() for i in range(tenants)}
    threads = [
        threading.Thread(target=run_tenant,
                         args=(addr, name, requests, batch, st, slow_ms, shape, fragment))
        for name, st in per_tenant.items()
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.monotonic() - t0

    all_lat, errors, hits, batched, done = [], [], 0, 0, 0
    for name, st in sorted(per_tenant.items()):
        lat = sorted(st.latencies_ms)
        all_lat.extend(lat)
        done += len(lat)
        hits += st.cache_hits
        batched += st.batched
        errors.extend(f"{name}: {e}" for e in st.errors)
        print(
            f"{name}: {len(lat)} requests, p50 {quantile(lat, 0.50):.2f} ms, "
            f"p99 {quantile(lat, 0.99):.2f} ms, {st.cache_hits} cache hits, "
            f"{st.batched} batched"
        )
    all_lat.sort()
    expected = tenants * requests
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(
        f"loadgen: {done}/{expected} responses in {wall_s:.2f}s "
        f"({done / wall_s:.0f} req/s), p50 {quantile(all_lat, 0.50):.2f} ms, "
        f"p99 {quantile(all_lat, 0.99):.2f} ms, "
        f"cache hits {hits}, batched {batched}, protocol errors: {len(errors)}"
    )
    if slow_ms is not None:
        slow = [(name, rid, seq, lat)
                for name, st in sorted(per_tenant.items())
                for rid, seq, lat in st.slow]
        print(f"slow: {len(slow)} request(s) over {slow_ms} ms")
        if slow and metrics_addr:
            print_slow_breakdown(metrics_addr, slow, expected)
        elif slow:
            print("slow: pass --metrics HOST:PORT to fetch per-phase breakdowns "
                  "from /debug/requests", file=sys.stderr)
    return 0 if not errors and done == expected else 1


def spawn_server(cmd):
    env = dict(os.environ, DMML_SERVE_ADDR="127.0.0.1:0")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    addr = None
    for line in proc.stdout:
        sys.stdout.write(line)
        if line.startswith(BANNER):
            host, _, port = line[len(BANNER):].strip().rpartition(":")
            addr = (host, int(port))
            break
    if addr is None:
        proc.terminate()
        raise SystemExit(f"{cmd[0]} exited without printing the scoring banner")
    return proc, addr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--requests", type=int, default=25, help="requests per tenant")
    ap.add_argument("--batch", action="store_true", help="mark requests batchable")
    ap.add_argument("--rows", type=int, help="with --cols: score one `X %%*%% v` of a "
                    "ROWS x COLS model per request, as a slab frame once it holds "
                    f"{SLAB_MIN_ELEMS} values, and check the scores")
    ap.add_argument("--cols", type=int)
    ap.add_argument("--fragment", type=int, metavar="N",
                    help="send every frame in N-byte pieces, one send each, "
                         "so the server reads frames split at arbitrary points")
    ap.add_argument("--addr", help="host:port of a running server")
    ap.add_argument("--slow", type=float, metavar="MS",
                    help="report requests slower than MS milliseconds; with "
                         "--metrics, print their per-phase breakdown from "
                         "/debug/requests")
    ap.add_argument("--metrics", metavar="HOST:PORT",
                    help="the server's metrics/debug endpoint address")
    ap.add_argument("--spawn", nargs=argparse.REMAINDER,
                    help="command to start a server (everything after --spawn)")
    args = ap.parse_args()
    if (args.rows is None) != (args.cols is None):
        ap.error("--rows and --cols go together")
    shape = (args.rows, args.cols) if args.rows else None
    if args.fragment is not None and args.fragment < 1:
        ap.error("--fragment takes a positive byte count")

    if args.spawn:
        proc, addr = spawn_server(args.spawn)
        try:
            return run_load(addr, args.tenants, args.requests, args.batch,
                            args.slow, args.metrics, shape, args.fragment)
        finally:
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    elif args.addr:
        host, _, port = args.addr.rpartition(":")
        return run_load((host, int(port)), args.tenants, args.requests, args.batch,
                        args.slow, args.metrics, shape, args.fragment)
    else:
        ap.error("one of --addr or --spawn is required")
    return 2


if __name__ == "__main__":
    sys.exit(main())
