"""Stub completion endpoint for the probe_stub workload.

Run as its own process: ``python3 bench/stub_server.py --seed N``. It binds
127.0.0.1 on a free port, prints ``READY <port>`` on stdout once it accepts
connections, and serves until it is terminated.

POST any path with a JSON body carrying ``prompt``: after a fixed service
delay the reply is ``{"completion": text}``, where text depends only on the
seed and a hash of the prompt (``reply_for``). GET ``/stats`` returns the
counters: connections that carried a completion request, completion
requests, and the summed service time. The stub never scripts an error
reply, because the client's retry backoff would turn the workload into a
measure of sleep time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

# Fixed replies and the label each one must map to (None: unmapped).
MAPPED_REPLIES = (
    ("Yes", "yes"),
    ("no.", "no"),
    ("yes, I think", "yes"),
    ("No, not really", "no"),
    ("Middle", "middle"),
    ("middle, it depends", "middle"),
)
UNMAPPED_REPLIES = ("Yes and no", "I cannot tell")
REPLY_LABELS: dict[str, Optional[str]] = dict(MAPPED_REPLIES)
REPLY_LABELS.update((text, None) for text in UNMAPPED_REPLIES)

UNMAPPED_RATE = 0.04
SERVICE_DELAY_S = 0.002


def reply_for(prompt: str, seed: int) -> str:
    """The fixed completion for one prompt: a seeded few percent unmapped."""
    digest = hashlib.sha256(f"{seed}\0{prompt}".encode("utf-8")).digest()
    if int.from_bytes(digest[:4], "big") < UNMAPPED_RATE * 2**32:
        return UNMAPPED_REPLIES[digest[4] % len(UNMAPPED_REPLIES)]
    return MAPPED_REPLIES[digest[4] % len(MAPPED_REPLIES)][0]


class _Stats:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.service_s = 0.0

    def record(self, new_connection: bool, service_s: float) -> None:
        with self._lock:
            self.connections += new_connection
            self.requests += 1
            self.service_s += service_s

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "service_s": self.service_s,
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a pooled client reuses connections
    served_on_connection = False

    def do_POST(self) -> None:
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        prompt = json.loads(self.rfile.read(length))["prompt"]
        time.sleep(SERVICE_DELAY_S)
        self._send_json({"completion": reply_for(prompt, self.server.seed)})
        self.server.stats.record(not self.served_on_connection, time.perf_counter() - start)
        self.served_on_connection = True

    def do_GET(self) -> None:
        if self.path != "/stats":
            self.send_error(404)
            return
        self._send_json(self.server.stats.snapshot())

    def _send_json(self, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # keep stderr quiet
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.seed = args.seed
    server.stats = _Stats()
    print(f"READY {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
