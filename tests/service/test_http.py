"""The HTTP/JSON front end: round trips, error mapping, stats."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig, SampleSpec
from repro.service import HTTPServiceClient
from repro.service.client import HTTPError, encode_result


@pytest.fixture(scope="module")
def server(make_server, compiled_db):
    with make_server(compiled_db, workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return HTTPServiceClient(server.url)


class TestRoundTrips:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_sample_matches_direct_engine_call(self, client, compiled_db,
                                               workload):
        name = workload[0][0]
        over_http = client.sample(name, r=6, seed=41)
        direct = compiled_db.sample_many(
            [SampleSpec(name, 6, seed=41, key="0")]).ordered()[0]
        assert over_http == encode_result(direct)
        assert len(over_http["values"]) == 6

    def test_reconstruct_returns_elements_and_ops(self, client, workload):
        name, ids = workload[1]
        # Exhaustive mode guarantees recall (estimator-guided pruning may
        # miss elements below the noise floor).
        response = client.reconstruct(name, exhaustive=True)
        assert set(ids.tolist()) <= set(response["elements"])
        assert response["ops"]["memberships"] > 0

    def test_contains(self, client, workload):
        name, ids = workload[2]
        assert client.contains(name, int(ids[0]))["contains"] is True

    def test_union_and_intersection(self, client, workload):
        names = [workload[0][0], workload[1][0]]
        union = client.sample_union(names, seed=9)
        assert union["value"] is not None
        sketch = client.sample_intersection(names, seed=9)
        assert "value" in sketch

    def test_add_set_then_query(self, client):
        ids = list(range(0, 900, 9))
        assert client.add_set("added-via-http", ids)["ok"] is True
        got = client.sample("added-via-http", r=4, seed=2)
        assert all(v % 9 == 0 for v in got["values"])

    def test_sample_response_shape(self, client, workload):
        name, ids = workload[0]
        response = client.sample(name, r=3, seed=8)
        assert sorted(response) == ["ops", "requested", "shortfall",
                                    "values"]
        assert response["requested"] == 3
        assert all(isinstance(v, int) for v in response["values"])
        assert set(response["values"]) <= set(np.asarray(ids).tolist())

    def test_stats_nonempty(self, client, workload):
        client.sample(workload[0][0], r=2, seed=1)
        stats = client.stats()
        assert stats["counters"]["served_total"] > 0
        assert stats["pool"]["workers"] == 2
        assert stats["policy"]["max_batch"] > 0
        assert "batch_size" in stats["histograms"]


class TestErrorMapping:
    def test_unknown_set_is_404(self, client):
        with pytest.raises(HTTPError) as info:
            client.sample("missing-set")
        assert info.value.status == 404

    def test_unknown_route_is_400(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/no-such-route", {})
        assert info.value.status == 400

    def test_missing_field_is_400(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/sample", {"r": 3})
        assert info.value.status == 400
        assert "set" in str(info.value)

    def test_union_of_no_sets_is_400(self, client):
        with pytest.raises(HTTPError) as info:
            client.sample_union([])
        assert info.value.status == 400

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/sample", data=b"{nope", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_duplicate_add_set_is_409(self, client, workload):
        with pytest.raises(HTTPError) as info:
            client.add_set(workload[0][0], [1, 2, 3])
        assert info.value.status == 409
        assert "already exists" in str(info.value)

    def test_checkpoint_on_volatile_pool_is_409(self, client):
        with pytest.raises(HTTPError) as info:
            client.checkpoint()
        assert info.value.status == 409

    def test_get_unknown_route_is_404(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    def test_unsupported_method_is_405(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("PUT", "/sample", {"set": "set0"})
        assert info.value.status == 405


class TestServerLifecycle:
    def test_port_zero_resolves(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")

    @pytest.mark.parametrize("tree", ["static", "pruned", "dynamic"])
    def test_smoke_cli_mode(self, capsys, tree):
        from repro.__main__ import main

        rc = main(["serve", "--smoke", "--requests", "60",
                   "--namespace", "6000", "--set-size", "80",
                   "--num-sets", "4", "--workers", "1", "--tree", tree])
        out = capsys.readouterr().out
        assert rc == 0
        assert "smoke: OK" in out
        assert "mutate-while-serving OK" in out


class TestOccupancyWriteEndpoints:
    """The serve write surface: /insert, /retire, /compact."""

    @pytest.fixture(scope="class")
    def dynamic_server(self, make_server):
        rng = np.random.default_rng(12)
        occupied = np.sort(rng.choice(8_000, 1_000,
                                      replace=False).astype(np.uint64))
        config = EngineConfig(namespace_size=8_000, accuracy=0.9,
                              set_size=150, tree="dynamic",
                              plan="compiled", seed=5)
        db = BloomDB(config, occupied=occupied)
        db.add_set("alpha", rng.choice(occupied, 150, replace=False))
        with make_server(db, workers=2) as running:
            yield running

    def test_insert_then_retire_roundtrip(self, dynamic_server):
        http = HTTPServiceClient(dynamic_server.url)
        leader = dynamic_server.client.pool.leader
        before = leader.occupied.size
        fresh = [7000, 7001, 7002, 7003]
        assert http.insert_ids(fresh) == {"ok": True, "inserted": 4}
        assert leader.occupied.size == before + 4
        assert http.retire_ids(fresh) == {"ok": True, "retired": 4}
        assert leader.occupied.size == before

    def test_compact_is_bit_invisible_over_http(self, dynamic_server):
        http = HTTPServiceClient(dynamic_server.url)
        http.insert_ids([7100, 7101, 7102])
        before = http.sample("alpha", r=6, seed=3)
        response = http.compact()
        assert response["ok"] is True
        assert http.sample("alpha", r=6, seed=3) == before

    def test_retire_on_static_tree_is_400(self, client):
        with pytest.raises(HTTPError) as excinfo:
            client.retire_ids([1, 2, 3])
        assert excinfo.value.status == 400

    def test_insert_on_static_tree_is_a_noop_ok(self, client):
        assert client.insert_ids([1, 2, 3])["ok"] is True

    def test_insert_requires_ids_list(self, client):
        request = urllib.request.Request(
            client.base_url + "/insert",
            data=json.dumps({"ids": "nope"}).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
