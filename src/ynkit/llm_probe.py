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
live client posts JSON over the standard library's urllib with one
connection per request, retries only failures that may pass (connection
errors, timeouts, HTTP 429 and 5xx) and fails at once on the rest;
LiveClient says why it does not reuse connections.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
import urllib.error
import urllib.parse
import urllib.request
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
    """HTTP POST client for a completion endpoint, over ``urllib.request``.

    Endpoint and credential come from arguments or the YNKIT_LLM_ENDPOINT /
    YNKIT_LLM_API_KEY environment variables; the endpoint must be an absolute
    http:// or https:// URL with a host. Proxies come from HTTP(S)_PROXY and
    NO_PROXY. Accepts {"completion": ...}, OpenAI-style
    {"choices": [{"text": ...}]} and chat-style
    {"choices": [{"message": {"content": ...}}]} response bodies.

    Each request opens its own connection. Reusing one stalls about 40 ms
    per request against a server that writes headers and body in separate
    sends without TCP_NODELAY (delayed ACK meets Nagle), as the benchmark's
    stub does.

    A failure that may pass is retried with exponential backoff: a refused,
    reset or dropped connection, a timeout, HTTP 429 and HTTP 5xx. Any other
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
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"

    def send(self, prompt: str) -> str:
        body = json.dumps({"prompt": prompt, **GENERATION_PARAMS}).encode("utf-8")
        last_error: Optional[Exception] = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.sleeper(BACKOFF_SECONDS * 2 ** (attempt - 1))
            request = urllib.request.Request(
                self.endpoint, data=body, headers=self._headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_SECONDS) as response:
                    status, raw = response.status, response.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise TransportError(
                        f"completion request to {self.endpoint}: HTTP {exc.code} {exc.reason}"
                    ) from None
                last_error = exc
                continue
            except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
                last_error = exc
                continue
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
    return ProbeResult(responses=responses, unmapped_count=unmapped, manifest=manifest)

