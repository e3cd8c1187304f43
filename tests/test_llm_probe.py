import json

import pytest

from ynkit.corpus import Label
from ynkit.distant import QAInstance
from ynkit.errors import InsufficientShotsError, MissingRecordingError, TransportError
from ynkit.llm_probe import (
    GenerationParams,
    LiveClient,
    PromptTemplate,
    RecordingClient,
    ReplayClient,
    build_prompt,
    map_response,
    probe_benchmark,
    recording_key,
)

TARGET = QAInstance(
    context=(),
    question="Do you like Mexican food?",
    answer="I am fine with tacos if my friends suggest Mexican",
    label=None,
    source="gold",
    origin_ids=("demo", "demo-q", "demo-a"),
)

SHOTS = (
    ("Were you at the meeting yesterday?", "I had to pick up the kids from school.", Label.NO),
    ("Do you want to go out for dinner tonight?", "I have a deadline and I may skip dinner.", Label.NO),
    ("Do you like spicy food?", "I reach for the hot sauce with everything.", Label.YES),
    ("Was the deadline moved again?", "Ask me tomorrow.", Label.MIDDLE),
)


def test_zero_shot_matches_golden(golden_dir):
    prompt = build_prompt(TARGET, PromptTemplate(), 0)
    assert prompt == (golden_dir / "prompt_0shot.txt").read_text(encoding="utf-8")


def test_four_shot_matches_golden(golden_dir):
    prompt = build_prompt(TARGET, PromptTemplate(shot_examples=SHOTS), 4)
    assert prompt == (golden_dir / "prompt_4shot.txt").read_text(encoding="utf-8")


def test_prompt_block_counts():
    zero = build_prompt(TARGET, PromptTemplate(shot_examples=SHOTS), 0)
    four = build_prompt(TARGET, PromptTemplate(shot_examples=SHOTS), 4)
    assert zero.count("### Input:") == 1
    assert four.count("### Input:") == 5
    assert zero.count("Does the answer mean Yes, No or Middle?") == 1
    assert four.count("Does the answer mean Yes, No or Middle?") == 5
    for prompt in (zero, four):
        assert prompt.endswith("### Response:")


def test_prompt_determinism():
    template = PromptTemplate(shot_examples=SHOTS)
    assert build_prompt(TARGET, template, 2) == build_prompt(TARGET, template, 2)


def test_insufficient_shots():
    with pytest.raises(InsufficientShotsError):
        build_prompt(TARGET, PromptTemplate(), 1)


def test_map_response_table():
    assert map_response("Yes").label is Label.YES
    assert map_response("The answer means Middle.").label is Label.MIDDLE
    assert map_response("Maybe yes, maybe no").label is None
    assert map_response("Yes.").label is Label.YES
    assert map_response("NO").label is Label.NO
    assert map_response("yes yes Yes").label is Label.YES  # one distinct candidate
    assert map_response("I cannot say").label is None
    assert map_response("").label is None
    assert map_response("middle ground, middle of the road").label is Label.MIDDLE


def test_recording_key_sensitive_to_params():
    default = recording_key("prompt", GenerationParams())
    hotter = recording_key("prompt", GenerationParams(temperature=0.9))
    other_prompt = recording_key("prompt2", GenerationParams())
    assert default != hotter
    assert default != other_prompt
    assert default == recording_key("prompt", GenerationParams())


class StubClient:
    def __init__(self, completions):
        self.completions = completions
        self.calls = 0

    def send(self, prompt, params):
        completion = self.completions[self.calls % len(self.completions)]
        self.calls += 1
        return completion

    def identity(self):
        return "stub"


def test_probe_benchmark_with_stub():
    instances = [TARGET, TARGET, TARGET]
    result = probe_benchmark(
        instances, PromptTemplate(), 0, StubClient(["Yes", "No", "I cannot say"])
    )
    labels = [r.label for r in result.responses]
    assert labels == [Label.YES, Label.NO, None]
    assert result.unmapped_count == 1
    assert result.manifest["n"] == 3
    assert result.manifest["shots"] == 0
    assert result.manifest["client"] == "stub"


def test_record_then_replay_round_trip(tmp_path):
    recorder = RecordingClient(StubClient(["Yes", "Middle"]))
    instances = [
        TARGET,
        QAInstance(
            context=(),
            question="Was it cold?",
            answer="We needed jackets.",
            label=None,
            source="gold",
            origin_ids=("x", "xq", "xa"),
        ),
    ]
    live = probe_benchmark(instances, PromptTemplate(), 0, recorder)
    store_path = tmp_path / "store.json"
    recorder.save(store_path)
    replayed = probe_benchmark(instances, PromptTemplate(), 0, ReplayClient(store_path))
    assert [r.label for r in replayed.responses] == [r.label for r in live.responses]


def test_replay_miss_names_digest(tmp_path):
    store_path = tmp_path / "empty.json"
    store_path.write_text("{}")
    client = ReplayClient(store_path)
    expected = recording_key(build_prompt(TARGET, PromptTemplate(), 0), GenerationParams())
    with pytest.raises(MissingRecordingError, match=expected):
        probe_benchmark([TARGET], PromptTemplate(), 0, client)


def test_bundled_replay_store_runs_offline(data_dir):
    from ynkit.distant import read_instances

    instances = read_instances(data_dir / "probe_demo.jsonl")
    client = ReplayClient(data_dir / "replay_store.json")
    result = probe_benchmark(instances, PromptTemplate(), 0, client)
    assert [r.label for r in result.responses] == [Label.YES, Label.NO, Label.MIDDLE]
    assert result.unmapped_count == 0


class SlowStub:
    """Returns a per-prompt completion; order must survive concurrency."""

    def send(self, prompt, params):
        import time

        if "spicy" in prompt:
            time.sleep(0.05)
            return "Yes"
        return "No"

    def identity(self):
        return "slow-stub"


def test_probe_preserves_input_order_with_concurrency():
    spicy = QAInstance(
        context=(),
        question="Do you like spicy food?",
        answer="Always.",
        label=None,
        source="gold",
        origin_ids=("s", "sq", "sa"),
    )
    result = probe_benchmark(
        [spicy, TARGET, TARGET], PromptTemplate(), 0, SlowStub(), concurrency=3
    )
    assert [r.label for r in result.responses] == [Label.YES, Label.NO, Label.NO]


# -- live client over a fake transport --


class FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status_code = status

    def raise_for_status(self):
        import requests

        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self.payload


def test_live_client_payload_shapes(monkeypatch):
    import requests

    shapes = [
        {"completion": "Yes"},
        {"choices": [{"text": "No"}]},
        {"choices": [{"message": {"content": "Middle"}}]},
    ]
    outcomes = []
    for payload in shapes:
        monkeypatch.setattr(requests, "post", lambda *a, payload=payload, **k: FakeResponse(payload))
        client = LiveClient(endpoint="http://example.invalid/complete", api_key="k")
        outcomes.append(client.send("prompt", GenerationParams()))
    assert outcomes == ["Yes", "No", "Middle"]


def test_live_client_retries_then_fails(monkeypatch):
    import requests

    calls = []

    def failing_post(*args, **kwargs):
        calls.append(1)
        raise requests.ConnectionError("refused")

    sleeps = []
    monkeypatch.setattr(requests, "post", failing_post)
    client = LiveClient(
        endpoint="http://example.invalid/complete",
        max_retries=2,
        backoff_seconds=1.0,
        sleeper=sleeps.append,
    )
    with pytest.raises(TransportError, match="3 attempts"):
        client.send("prompt", GenerationParams())
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]  # bounded exponential backoff


def test_live_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("YNKIT_LLM_ENDPOINT", raising=False)
    with pytest.raises(TransportError, match="YNKIT_LLM_ENDPOINT"):
        LiveClient()


def test_generation_defaults_match_documented_values():
    params = GenerationParams()
    assert params.temperature == 0.1
    assert params.top_p == 0.1
    assert params.max_tokens == 4
