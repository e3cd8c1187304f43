"""Prompt construction and completion-endpoint probing for the 3-label task.

The default template renders the instruction block, optional worked
examples, and the target question/answer pair, ending at "### Response:".
Completions map back to labels by whole-token scan; anything with zero or
several distinct label tokens counts as unmapped.

A client provides send(prompt) -> str, sampling with GENERATION_PARAMS,
and identity() -> str, which names it in the probe manifest.
The replay client serves recorded completions keyed by a digest of
(prompt, GENERATION_PARAMS), so a change of parameters invalidates
recordings, and test runs never touch the network. The
live client posts JSON over the standard library's http.client on
kept-alive connections, one per concurrent worker, retries only failures
that may pass (connection errors, timeouts, HTTP 429 and 5xx) and fails at
once on the rest. It sets TCP_QUICKACK after each request it sends, so a
server that writes headers and body in two sends under Nagle's algorithm
gets its first send ACKed at once and does not wait out a delayed ACK.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import weakref
from base64 import b64encode
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .corpus import Label, tokenize
from .distant import QAInstance
from .errors import CorpusFormatError, InvalidConfigError, TransportError

PROMPT_PREAMBLE = (
    "Below is an instruction and a yes-no question-answer pair input. "
    "Write a response that appropriately completes the request."
)

PROMPT_INSTRUCTION = (
    "I need you to help me understand indirect answers to yes-no questions. "
    "Indirect answers can be interpreted with three meanings: Yes, No, and Middle. "
    "Simply reply Yes, No or Middle based on the question and answer."
)

PROMPT_CLOSING_QUESTION = "Does the answer mean Yes, No or Middle?"


# sent in this key order with every request, and hashed into every recording key
GENERATION_PARAMS = {"temperature": 0.1, "top_p": 0.1, "max_tokens": 4}

# LiveClient retries a failure that may pass MAX_RETRIES times, sleeping
# BACKOFF_SECONDS, then twice that, and so on; each attempt waits at most
# TIMEOUT_SECONDS for the endpoint
MAX_RETRIES = 3
BACKOFF_SECONDS = 1.0
TIMEOUT_SECONDS = 60.0

# Linux only: without it a kept-alive connection would stall on delayed ACK,
# so elsewhere LiveClient closes each connection after its reply
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


@dataclass(frozen=True)
class PromptTemplate:
    """The worked examples a prompt may draw on: (question, answer, label)."""

    shot_examples: tuple[tuple[str, str, Label], ...] = ()


def _input_block(question: str, answer: str) -> str:
    return (
        "### Input:\n\n"
        f'Question: "{question}"\n\n'
        f'Answer: "{answer}"\n\n'
        f"{PROMPT_CLOSING_QUESTION}\n\n"
        "### Response:"
    )


def build_prompt(instance: QAInstance, template: PromptTemplate = PromptTemplate(), shots: int = 0) -> str:
    """Byte-deterministic prompt: instruction, `shots` worked examples,
    then the target pair, ending at "### Response:"."""
    if shots < 0:
        raise InvalidConfigError(f"shots must be >= 0, got {shots}")
    if shots > len(template.shot_examples):
        raise InvalidConfigError(
            f"requested {shots} shots but template has {len(template.shot_examples)} examples"
        )
    parts = [PROMPT_PREAMBLE, f"### Instruction: {PROMPT_INSTRUCTION}"]
    for question, answer, label in template.shot_examples[:shots]:
        parts.append(f"{_input_block(question, answer)} {label.value.capitalize()}")
    parts.append(_input_block(instance.question, instance.answer))
    return "\n\n".join(parts)


@dataclass(frozen=True)
class MappedResponse:
    raw: str
    label: Optional[Label]  # None means unmapped


def map_response(raw: str) -> MappedResponse:
    """Scan lowercased whole tokens for yes/no/middle; exactly one distinct
    candidate maps, zero or several leave the response unmapped."""
    words = {token.lower() for token in tokenize(raw)}
    candidates = [label for label in Label if label.value in words]
    if len(candidates) == 1:
        return MappedResponse(raw=raw, label=candidates[0])
    return MappedResponse(raw=raw, label=None)


def _is_http_url(url: str) -> bool:
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def recording_key(prompt: str) -> str:
    payload = json.dumps(
        {"prompt": prompt, "params": GENERATION_PARAMS}, sort_keys=True
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ReplayClient:
    """Serves completions from a recorded store; never touches the network.

    A store file is one JSON object from prompt digest to completion string.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        try:
            store = json.loads(self.path.read_text(encoding="utf-8"))
        except ValueError as exc:  # undecodable bytes or JSON
            raise InvalidConfigError(f"{self.path}: not a replay store ({exc})") from None
        if type(store) is not dict or any(type(v) is not str for v in store.values()):
            raise InvalidConfigError(
                f"{self.path}: not a replay store (expected a JSON object of strings)"
            )
        self.store: dict[str, str] = store

    def send(self, prompt: str) -> str:
        key = recording_key(prompt)
        if key not in self.store:
            raise CorpusFormatError(f"no recording for prompt digest {key}")
        return self.store[key]

    def identity(self) -> str:
        return f"replay:{self.path}"


class LiveClient:
    """HTTP POST client for a completion endpoint, over ``http.client``.

    Endpoint and credential come from arguments or the YNKIT_LLM_ENDPOINT /
    YNKIT_LLM_API_KEY environment variables; the endpoint must be an absolute
    http:// or https:// URL with a host. Proxies come from HTTP(S)_PROXY and
    NO_PROXY, read when the client is made: through a proxy a plain http
    endpoint is requested by its absolute URL, and an https one through a
    CONNECT tunnel. Accepts {"completion": ...}, OpenAI-style
    {"choices": [{"text": ...}]} and chat-style
    {"choices": [{"message": {"content": ...}}]} response bodies.

    Connections stay open between requests: each send takes an idle one
    from the pool or opens one, so concurrent workers hold one each.
    After sending a request the client sets TCP_QUICKACK on its socket.
    A server that writes headers and body in two sends without TCP_NODELAY
    (Python's http.server does) otherwise holds the body back under Nagle's
    algorithm until the client's delayed ACK, about 40 ms per request.
    Where TCP_QUICKACK does not exist, each connection closes after its
    reply. ``close()`` closes the idle connections, and so does dropping
    the client. ``counters`` holds the connections opened and the retries.

    A failure that may pass is retried with exponential backoff: a refused,
    reset or dropped connection, a timeout, HTTP 429 and HTTP 5xx. A reused
    connection that the server closed before any byte of a reply is opened
    again and the request sent again at once; that is not a retry. Any other
    4xx, a body that is not JSON and a body with no completion raise
    TransportError at once.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get("YNKIT_LLM_ENDPOINT")
        if not self.endpoint:
            raise TransportError(
                "no completion endpoint configured (set YNKIT_LLM_ENDPOINT)"
            )
        if not _is_http_url(self.endpoint):
            raise TransportError(
                "completion endpoint must be an absolute http:// or https:// URL "
                f"with a host, got {self.endpoint!r}"
            )
        self.api_key = api_key or os.environ.get("YNKIT_LLM_API_KEY")
        self.sleeper = sleeper
        self._headers = {
            "Content-Type": "application/json",
            "User-Agent": f"Python-urllib/{urllib.request.__version__}",
        }
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self._route()
        self.counters = {"connections": 0, "retries": 0}
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)

    def _route(self) -> None:
        """Where connections go and which target each request names, with
        the endpoint's proxy, if any, chosen by urllib's proxy rules."""
        url = self.endpoint.partition("#")[0]
        parts = urllib.parse.urlsplit(url)
        self._https = parts.scheme == "https"
        self._address = (parts.hostname, parts.port)
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._tunnel: Optional[tuple] = None
        hostport = parts.netloc.rpartition("@")[2]
        proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(hostport):
            return
        proxy_url = proxy if "://" in proxy else f"http://{proxy}"
        if not _is_http_url(proxy_url):
            raise TransportError(
                f"{parts.scheme} proxy must be an http:// or https:// URL with a host, got {proxy!r}"
            )
        proxy_parts = urllib.parse.urlsplit(proxy_url)
        auth = {}
        if proxy_parts.username is not None:
            user = urllib.parse.unquote(proxy_parts.username)
            password = urllib.parse.unquote(proxy_parts.password or "")
            credentials = b64encode(f"{user}:{password}".encode()).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {credentials}"
        self._address = (proxy_parts.hostname, proxy_parts.port)
        if self._https:  # TLS to the endpoint, inside the tunnel
            self._tunnel = (parts.hostname, parts.port, auth)
        else:  # TLS, if any, to the proxy
            self._https = proxy_parts.scheme == "https"
            self._target = url
            self._headers.update(auth)

    def send(self, prompt: str) -> str:
        body = json.dumps({"prompt": prompt, **GENERATION_PARAMS}).encode("utf-8")
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connection()
        try:
            return self._send_on(conn, body)
        finally:
            self._idle.append(conn)

    def _send_on(self, conn: http.client.HTTPConnection, body: bytes) -> str:
        last_error: object = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self._count("retries")
                self.sleeper(BACKOFF_SECONDS * 2 ** (attempt - 1))
            try:
                status, reason, raw = self._exchange(conn, body)
            except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
                conn.close()
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP Error {status}: {reason}"
                continue
            if not 200 <= status < 300:
                raise TransportError(
                    f"completion request to {self.endpoint}: HTTP {status} {reason}"
                )
            try:
                payload = json.loads(raw)
            except ValueError:
                raise TransportError(
                    f"completion request to {self.endpoint}: HTTP {status} body is not JSON"
                ) from None
            try:
                completion = self._extract(payload)
            except (KeyError, IndexError, TypeError):
                completion = None
            if not isinstance(completion, str):
                raise TransportError(
                    f"completion request to {self.endpoint}: HTTP {status} body has no completion"
                )
            return completion
        raise TransportError(
            f"completion request to {self.endpoint} failed after "
            f"{MAX_RETRIES + 1} attempts: {last_error}"
        )

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, str, bytes]:
        """POST ``body`` on ``conn``, opening it if it is closed, and read the
        whole reply. A failure to connect or send is raised as a URLError,
        whose message reads ``<urlopen error ...>``."""
        reused = conn.sock is not None
        try:
            if not reused:
                conn.connect()
                self._count("connections")
            conn.request("POST", self._target, body, self._headers)
        except OSError as exc:
            conn.close()
            if reused and isinstance(exc, ConnectionError):
                return self._exchange(conn, body)
            raise urllib.error.URLError(exc) from None
        if _QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        try:
            response = conn.getresponse()
        except ConnectionError:  # reset, or closed before a status line
            if not reused:
                raise
            conn.close()
            return self._exchange(conn, body)
        raw = response.read()
        if _QUICKACK is None:
            conn.close()
        return response.status, response.reason, raw

    def _connection(self) -> http.client.HTTPConnection:
        cls = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        conn = cls(*self._address, timeout=TIMEOUT_SECONDS)
        if self._tunnel:
            host, port, headers = self._tunnel
            conn.set_tunnel(host, port, headers)
        return conn

    def _count(self, key: str) -> None:
        with self._lock:
            self.counters[key] += 1

    def close(self) -> None:
        """Close the idle connections; a later send opens new ones."""
        _close_all(self._idle)

    @staticmethod
    def _extract(payload: dict) -> str:
        if "completion" in payload:
            return payload["completion"]
        choice = payload["choices"][0]
        if "text" in choice:
            return choice["text"]
        return choice["message"]["content"]

    def identity(self) -> str:
        return f"live:{self.endpoint}"


def _close_all(connections: list) -> None:
    while connections:
        connections.pop().close()


@dataclass(frozen=True)
class ProbeResult:
    responses: tuple[MappedResponse, ...]
    unmapped_count: int
    manifest: dict


def probe_benchmark(
    instances: Sequence[QAInstance],
    template: PromptTemplate,
    shots: int,
    client,
    concurrency: int = 1,
) -> ProbeResult:
    """One mapped response per instance, in input order regardless of
    completion order."""
    prompts = [build_prompt(inst, template, shots) for inst in instances]
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        completions = list(pool.map(client.send, prompts))
    responses = tuple(map_response(c) for c in completions)
    unmapped = sum(1 for r in responses if r.label is None)
    manifest = {
        "client": client.identity(),
        "params": dict(GENERATION_PARAMS),
        "shots": shots,
        "n": len(instances),
        "unmapped": unmapped,
    }
    if isinstance(client, LiveClient):
        manifest.update(client.counters)
    return ProbeResult(responses=responses, unmapped_count=unmapped, manifest=manifest)

