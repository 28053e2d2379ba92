"""``/healthz`` vs ``/readyz`` on the HTTP front end.

Liveness ("the process answers") and readiness ("every worker can
serve") are different questions; CI's wait-for-boot polls and any load
balancer need the second one.  ``/readyz`` flips its status code
(200/503) on the ``ready`` flag, keeps the same JSON body either way,
and sends ``Retry-After`` with every 503.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import HTTPServiceClient


@pytest.fixture(scope="module")
def server(make_server, compiled_db):
    with make_server(compiled_db, workers=2) as running:
        yield running


def test_healthz_is_liveness_only(server):
    assert HTTPServiceClient(server.url).healthz() == {"ok": True}


def test_readyz_reports_every_worker(server):
    payload = HTTPServiceClient(server.url).readyz()
    assert payload["ready"] is True
    assert payload["mode"] == "process"
    assert payload["workers"] == 2
    assert payload["alive"] == 2


def test_readyz_answers_200_when_ready(server):
    with urllib.request.urlopen(server.url + "/readyz",
                                timeout=10) as response:
        assert response.status == 200


def test_not_ready_is_a_503_with_retry_after(make_server, compiled_db):
    with make_server(compiled_db, workers=1) as running:
        running.client.pool.stop()  # workers drained: not ready
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(running.url + "/readyz", timeout=10)
        assert info.value.code == 503
        assert info.value.headers.get("Retry-After") == "1"
        # The body still carries the full readiness detail.
        payload = json.loads(info.value.read().decode("utf-8"))
        assert payload["ready"] is False
        # The client returns that payload instead of raising.
        assert HTTPServiceClient(running.url).readyz() == payload
