"""Loaders, universe assembly, caching, rate limiting, and remote fetch."""
from __future__ import annotations

import json
import math
import random
import re
from datetime import date, datetime, timedelta, timezone
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from me2f.domain import (
    _SHARE_SUM_TOLERANCE,
    ChainRole,
    DailyBar,
    FrameworkParams,
    HolderSnapshot,
    SentimentPoint,
    SentimentSeries,
    TokenSeries,
    validate_series,
)
from me2f.errors import (
    ConfigError,
    DataError,
    EmptyFile,
    EmptyUniverse,
    HttpError,
    InvalidShares,
    MalformedRow,
    ParseError,
    PartialRange,
    ProviderUnreachable,
    RateLimited,
    SchemaMismatch,
)
from me2f.ingest import (
    BARS_HEADER,
    FGI_TABLE_HEADER,
    HISTORY_HEADER,
    SENTIMENT_HEADER,
    VOLATILITY_TABLE_HEADER,
    MarketDataClient,
    ProviderEndpointSpec,
    RateLimiter,
    load_bars_csv,
    load_fgi_table,
    load_history_csv,
    load_holders_csv,
    load_provider_config,
    load_sentiment_csv,
    load_universe,
    load_volatility_table,
)
from me2f.sentiment import FgiIndicators
from me2f.volatility import VolatilityAggregate
from me2f.warning import Metric, ScorePoint, ScoreSeries
from conftest import REFERENCE_DIR, FakeResponse, FakeSession

PARAMS = FrameworkParams()


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BARS_OK = """date,high,low,close,volume_usd,market_cap_usd
2024-01-01,110,90,100,1000000,2000000
2024-01-02,120,100,110,1500000,2500000
2024-01-03,115,105,108,1200000,2400000
"""


class TestLoadBarsCsv:
    def test_well_formed(self, tmp_path):
        series = load_bars_csv(write(tmp_path, "x.csv", BARS_OK), token_id="X")
        assert series.token_id == "X"
        assert len(series.bars) == 3
        assert series.bars[0].high == 110.0

    def test_token_id_defaults_to_stem(self, tmp_path):
        series = load_bars_csv(write(tmp_path, "doge.csv", BARS_OK))
        assert series.token_id == "DOGE"

    def test_low_above_high_is_malformed_row(self, tmp_path):
        text = BARS_OK.replace("2024-01-02,120,100", "2024-01-02,100,120")
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(write(tmp_path, "x.csv", text))
        assert (err.value.line, err.value.column) == (3, "low")

    @pytest.mark.parametrize("old,new,column", [
        ("2024-01-02,120", "2024-01-02,0", "high"),
        (",108,", ",0,", "close"),
        (",1500000,", ",-1500000,", "volume_usd"),
        (",2500000", ",-2500000", "market_cap_usd"),
    ])
    def test_failing_bar_field_is_named_as_the_column(self, tmp_path, old, new, column):
        path = write(tmp_path, "x.csv", BARS_OK.replace(old, new))
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(path)
        assert (err.value.path, err.value.column) == (path, column)
        assert f"column {column!r}" in str(err.value)

    def test_shuffled_dates_are_sorted(self, tmp_path):
        lines = BARS_OK.strip().splitlines()
        shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
        assert load_bars_csv(write(tmp_path, "a.csv", shuffled), token_id="X") == load_bars_csv(
            write(tmp_path, "b.csv", BARS_OK), token_id="X"
        )

    def test_duplicate_dates_rejected(self, tmp_path):
        text = BARS_OK + "2024-01-03,111,101,105,1000,2000\n"
        path = write(tmp_path, "x.csv", text)
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(path)
        assert (err.value.path, err.value.line, err.value.column) == (path, 5, "date")
        assert "duplicate date 2024-01-03" in str(err.value)

    def test_schema_mismatch(self, tmp_path):
        with pytest.raises(SchemaMismatch):
            load_bars_csv(write(tmp_path, "x.csv", "date,open,close\n2024-01-01,1,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_bars_csv(write(tmp_path, "x.csv", ""))
        with pytest.raises(EmptyFile):
            load_bars_csv(write(tmp_path, "y.csv", ",".join(BARS_HEADER) + "\n"))

    def test_bad_number(self, tmp_path):
        text = BARS_OK.replace("1500000", "oops")
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(write(tmp_path, "x.csv", text))
        assert err.value.column == "volume_usd"

    def test_bad_date(self, tmp_path):
        text = BARS_OK.replace("2024-01-03", "03/01/2024")
        with pytest.raises(MalformedRow):
            load_bars_csv(write(tmp_path, "x.csv", text))


class TestLoadHoldersCsv:
    def test_hundred_equal_shares(self, tmp_path):
        text = "rank,share\n" + "".join(f"{i},0.005\n" for i in range(1, 101))
        snap = load_holders_csv(write(tmp_path, "h.csv", text), token_id="X")
        assert len(snap.shares) == 100
        assert sum(snap.shares) == pytest.approx(0.5)

    def test_truncates_to_top_n(self, tmp_path):
        text = "rank,share\n" + "".join(f"{i},0.005\n" for i in range(1, 151))
        snap = load_holders_csv(write(tmp_path, "h.csv", text), n=100)
        assert len(snap.shares) == 100

    def test_sum_exceeds_one(self, tmp_path):
        text = "rank,share\n" + "".join(f"{i},0.012\n" for i in range(1, 101))
        path = write(tmp_path, "h.csv", text)
        with pytest.raises(InvalidShares) as err:
            load_holders_csv(path)
        assert str(path) in str(err.value)

    def test_sum_tolerance_is_the_domain_one(self, tmp_path):
        # the third share lies past the top n = 2 but still counts toward the sum
        def holders(excess):
            text = f"rank,share\n1,0.5\n2,0.5\n3,{_SHARE_SUM_TOLERANCE * excess!r}\n"
            return write(tmp_path, f"h{excess}.csv", text)

        assert load_holders_csv(holders(0.5), n=2).shares == (0.5, 0.5)
        path = holders(2)
        with pytest.raises(InvalidShares) as err:
            load_holders_csv(path, n=2)
        assert str(path) in str(err.value)

    def test_negative_share(self, tmp_path):
        path = write(tmp_path, "h.csv", "rank,share\n1,-0.2\n")
        with pytest.raises(MalformedRow) as err:
            load_holders_csv(path)
        assert (err.value.path, err.value.line, err.value.column) == (path, 2, "share")

    def test_sorts_descending(self, tmp_path):
        snap = load_holders_csv(write(tmp_path, "h.csv", "rank,share\n1,0.1\n2,0.4\n3,0.2\n"))
        assert snap.shares == (0.4, 0.2, 0.1)

    def test_address_schema_with_exclusions(self, tmp_path):
        text = "address,share\n0xabc,0.4\n0xexchange,0.3\n0xdef,0.1\n"
        snap = load_holders_csv(
            write(tmp_path, "h.csv", text), exclude={"0xexchange"}
        )
        assert snap.shares == (0.4, 0.1)

    def test_unknown_header(self, tmp_path):
        with pytest.raises(SchemaMismatch):
            load_holders_csv(write(tmp_path, "h.csv", "wallet,pct\nx,0.5\n"))


class TestLoadSentimentCsv:
    def test_two_rows(self, tmp_path):
        text = "date,fgi,abs_return\n2024-01-01,50,\n2024-01-02,60,0.05\n"
        series = load_sentiment_csv(write(tmp_path, "s.csv", text), token_id="X")
        assert len(series.points) == 2
        assert series.points[0].abs_return is None
        assert series.points[1].abs_return == 0.05

    def test_real_valued_fgi(self, tmp_path):
        text = "date,fgi,abs_return\n2024-01-01,94.5,\n2024-01-02,60,0.05\n"
        series = load_sentiment_csv(write(tmp_path, "s.csv", text))
        assert series.points[0].fgi == 94.5

    def test_fgi_out_of_range(self, tmp_path):
        text = "date,fgi,abs_return\n2024-01-01,101,\n"
        path = write(tmp_path, "s.csv", text)
        with pytest.raises(MalformedRow) as err:
            load_sentiment_csv(path)
        assert (err.value.path, err.value.line, err.value.column) == (path, 2, "fgi")


class TestSummaryTables:
    def test_reference_volatility_table(self):
        table = load_volatility_table(REFERENCE_DIR / "reference_volatility.csv")
        assert len(table) == 9
        agg, role = table["DOGE"]
        assert agg.avg_vol == pytest.approx(0.0627)
        assert agg.max_volume == pytest.approx(399.36)
        assert role.is_standalone
        _, shib_role = table["SHIB"]
        assert shib_role.base == "ETH"

    def test_reference_fgi_table(self):
        table = load_fgi_table(REFERENCE_DIR / "reference_fgi.csv")
        assert len(table) == 8 and "LIBRA" not in table
        eth = table["ETH"]
        assert eth.r_f == pytest.approx(87.0)
        assert eth.q_g == pytest.approx(0.0119)
        assert eth.delta_p_max == pytest.approx(0.1012)

    def test_hosted_without_base_rejected(self, tmp_path):
        text = ("token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base\n"
                "X,1,2,3,4,hosted,\n")
        with pytest.raises(MalformedRow):
            load_volatility_table(write(tmp_path, "v.csv", text))


class TestLoadUniverse:
    def test_reference_universe(self, reference_universe_path):
        inputs = load_universe(reference_universe_path, PARAMS)
        assert len(inputs) == 9
        assert inputs["LIBRA"].fgi is None
        assert inputs["TRUMP"].role.base == "SOL"

    def test_empty_universe_names_file(self, tmp_path):
        path = write(tmp_path, "u.json", '{"tokens": []}')
        with pytest.raises(EmptyUniverse) as err:
            load_universe(path, PARAMS)
        assert "u.json" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_universe(tmp_path / "nope.json", PARAMS)

    def test_per_token_files(self, tmp_path):
        write(tmp_path, "x.csv", BARS_OK)
        holders = "rank,share\n1,0.5\n"
        write(tmp_path, "xh.csv", holders)
        doc = {"tokens": [{"id": "X", "role": "standalone", "bars": "x.csv", "holders": "xh.csv"}]}
        inputs = load_universe(write(tmp_path, "u.json", json.dumps(doc)), PARAMS)
        assert inputs["X"].series is not None
        assert inputs["X"].holders.shares == (0.5,)

    def test_role_required(self, tmp_path):
        doc = {"tokens": [{"id": "X"}]}
        with pytest.raises(ConfigError):
            load_universe(write(tmp_path, "u.json", json.dumps(doc)), PARAMS)

    def test_exclude_addresses_passthrough(self, tmp_path):
        write(tmp_path, "h.csv", "address,share\n0xwhale,0.4\n0xcustody,0.3\n")
        doc = {"tokens": [{"id": "X", "role": "standalone", "holders": "h.csv",
                           "exclude_addresses": ["0xcustody"]}]}
        inputs = load_universe(write(tmp_path, "u.json", json.dumps(doc)), PARAMS)
        assert inputs["X"].holders.shares == (0.4,)


# --- remote fetch ----------------------------------------------------------

class ExplodingSession:
    def get(self, *args, **kwargs):  # pragma: no cover - reaching it is the failure
        raise AssertionError("network touched despite cache hit")


def make_provider(page_size=2, api_key_header=None, rate_limit=30):
    return ProviderEndpointSpec(
        name="fakeprov",
        base_url="https://api.fake",
        path="/bars/{token}",
        query={"start": "{start}", "end": "{end}", "page": "{page}", "limit": "{page_size}"},
        fields={"date": "d", "high": "h", "low": "l", "close": "c",
                "volume_usd": "v", "market_cap_usd": "m"},
        items_path="data",
        api_key_header=api_key_header,
        rate_limit=rate_limit,
        timeout=5.0,
        page_size=page_size,
    )


def day_records(start: date, count: int):
    return [
        {"d": (start + timedelta(days=i)).isoformat(), "h": 110.0 + i, "l": 90.0 + i,
         "c": 100.0 + i, "v": 1e9, "m": 2e9}
        for i in range(count)
    ]


class SimClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(0.0, seconds)


def make_client(tmp_path, session, provider=None):
    clock = SimClock()
    return MarketDataClient(
        provider or make_provider(), tmp_path / "cache",
        session=session, clock=clock, sleep=clock.sleep,
    ), clock


class TestMarketDataClient:
    START = date(2024, 3, 1)

    def test_fetch_paginated_and_parsed(self, tmp_path):
        session = FakeSession(day_records(self.START, 5))
        client, _ = make_client(tmp_path, session)
        series = client.fetch_daily("DOGE", self.START, self.START + timedelta(days=4))
        assert len(series.bars) == 5
        assert len(session.calls) == 3  # pages of 2, 2, 1
        assert session.calls[0]["url"] == "https://api.fake/bars/DOGE"

    def test_cache_round_trip_zero_network(self, tmp_path):
        session = FakeSession(day_records(self.START, 5))
        client, _ = make_client(tmp_path, session)
        end = self.START + timedelta(days=4)
        first = client.fetch_daily("DOGE", self.START, end)
        cached_client, _ = make_client(tmp_path, ExplodingSession())
        second = cached_client.fetch_daily("DOGE", self.START, end)
        assert first == second
        assert validate_series(second) is second

    def test_corrupted_cache_is_refetched(self, tmp_path):
        session = FakeSession(day_records(self.START, 3))
        client, _ = make_client(tmp_path, session, make_provider(page_size=10))
        end = self.START + timedelta(days=2)
        client.fetch_daily("DOGE", self.START, end)
        cache_file = next((tmp_path / "cache").rglob("*.json"))
        cache_file.write_bytes(cache_file.read_bytes() + b" ")
        refetch = FakeSession(day_records(self.START, 3))
        client2, _ = make_client(tmp_path, refetch, make_provider(page_size=10))
        series = client2.fetch_daily("DOGE", self.START, end)
        assert len(refetch.calls) == 1
        assert len(series.bars) == 3

    def test_partial_range_lists_missing_days(self, tmp_path):
        records = day_records(self.START, 5)
        del records[2]  # drop 2024-03-03
        session = FakeSession(records, page_size=10)
        client, _ = make_client(tmp_path, session, make_provider(page_size=10))
        with pytest.raises(PartialRange) as err:
            client.fetch_daily("DOGE", self.START, self.START + timedelta(days=4))
        assert err.value.missing == [date(2024, 3, 3)]
        assert not list((tmp_path / "cache").rglob("*.json"))  # incomplete: not cached

    def test_429_retries_once_then_raises(self, tmp_path):
        ok = day_records(self.START, 1)
        session = FakeSession(ok, page_size=10,
                              fail_first=[FakeResponse(429, headers={"Retry-After": "7"})])
        client, clock = make_client(tmp_path, session, make_provider(page_size=10))
        series = client.fetch_daily("DOGE", self.START, self.START)
        assert len(series.bars) == 1
        assert clock.now >= 7.0  # honored the advertised delay

        double429 = FakeSession(ok, page_size=10,
                                fail_first=[FakeResponse(429), FakeResponse(429)])
        client2, _ = make_client(tmp_path, double429, make_provider(page_size=10))
        with pytest.raises(RateLimited):
            client2.fetch_daily("SHIB", self.START, self.START)  # fresh token: no cache hit

    def test_429_retry_after_http_date(self, tmp_path):
        retry = FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"})
        session = FakeSession(day_records(self.START, 1), page_size=10, fail_first=[retry])
        client, clock = make_client(tmp_path, session, make_provider(page_size=10))
        clock.now = start = datetime(2026, 10, 21, 7, 27, 30, tzinfo=timezone.utc).timestamp()
        assert len(client.fetch_daily("DOGE", self.START, self.START).dates) == 1
        assert clock.now - start >= 30.0

    @pytest.mark.parametrize("header", ["soon", "-5", "nan", "inf"])
    def test_429_unusable_retry_after_waits_one_second(self, tmp_path, header):
        retry = FakeResponse(429, headers={"Retry-After": header})
        session = FakeSession(day_records(self.START, 1), page_size=10, fail_first=[retry])
        client, clock = make_client(tmp_path, session, make_provider(page_size=10))
        assert len(client.fetch_daily("DOGE", self.START, self.START).dates) == 1
        assert clock.now == 1.0

    def test_http_error(self, tmp_path):
        session = FakeSession([], page_size=10,
                              fail_first=[FakeResponse(500, text="boom")])
        client, _ = make_client(tmp_path, session, make_provider(page_size=10))
        with pytest.raises(HttpError) as err:
            client.fetch_daily("DOGE", self.START, self.START)
        assert err.value.status == 500

    @pytest.mark.parametrize("failures", [
        [requests.ConnectionError("Connection refused")],
        [requests.Timeout()],
        [FakeResponse(429), requests.ConnectTimeout("timed out\nafter 5 s")],
    ], ids=["connection", "timeout", "on-429-retry"])
    def test_unreachable_provider_names_it_and_the_url(self, tmp_path, failures):
        session = FakeSession([], page_size=10, fail_first=failures)
        client, _ = make_client(tmp_path, session, make_provider(page_size=10))
        with pytest.raises(ProviderUnreachable) as err:
            client.fetch_daily("DOGE", self.START, self.START)
        assert str(err.value).startswith("fakeprov: cannot reach https://api.fake/bars/DOGE: ")
        assert "\n" not in str(err.value)

    def test_cache_dir_under_a_file_is_rejected_before_any_request(self, tmp_path):
        (tmp_path / "afile").write_text("")
        session = FakeSession(day_records(self.START, 1), page_size=10)
        client = MarketDataClient(make_provider(page_size=10), tmp_path / "afile" / "cache",
                                  session=session)
        with pytest.raises(ConfigError, match=re.escape(f"cache directory {tmp_path / 'afile'}")):
            client.fetch_daily("DOGE", self.START, self.START)
        assert session.calls == []

    def test_bad_items_path(self, tmp_path):
        session = FakeSession([], page_size=10,
                              fail_first=[FakeResponse(200, payload={"wrong": []})])
        client, _ = make_client(tmp_path, session, make_provider(page_size=10))
        with pytest.raises(ParseError):
            client.fetch_daily("DOGE", self.START, self.START)

    def test_record_date_follows_the_loaders_rule(self, tmp_path):
        records = day_records(self.START, 1)
        records[0]["d"] = self.START.strftime("%Y%m%d")  # Python 3.11's fromisoformat takes it
        client, _ = make_client(tmp_path, FakeSession(records, page_size=10), make_provider(page_size=10))
        with pytest.raises(ParseError, match="YYYY-MM-DD"):
            client.fetch_daily("DOGE", self.START, self.START)

    def test_api_key_from_environment(self, tmp_path, monkeypatch):
        provider = make_provider(page_size=10, api_key_header="x-api-key")
        assert provider.api_key_env() == "ME2F_API_KEY_FAKEPROV"
        monkeypatch.setenv("ME2F_API_KEY_FAKEPROV", "sekrit")
        session = FakeSession(day_records(self.START, 1), page_size=10)
        client, _ = make_client(tmp_path, session, provider)
        client.fetch_daily("DOGE", self.START, self.START)
        assert session.calls[0]["headers"]["x-api-key"] == "sekrit"


class TestRateLimiter:
    def test_rolling_window_compliance(self):
        clock = SimClock()
        limiter = RateLimiter(10, clock=clock, sleep=clock.sleep)
        times = []
        for _ in range(25):
            limiter.acquire()
            times.append(clock.now)
            clock.now += 0.5  # requests arrive faster than the budget
        for i in range(len(times) - 10):
            assert times[i + 10] - times[i] >= 60.0 - 1e-9

    def test_under_budget_never_sleeps(self):
        clock = SimClock()
        limiter = RateLimiter(5, clock=clock, sleep=clock.sleep)
        for _ in range(5):
            limiter.acquire()
        assert clock.now == 0.0


class TestProviderConfig:
    def test_load_round_trip(self, tmp_path):
        doc = {
            "name": "prov", "base_url": "https://x", "path": "/v1/{token}",
            "query": {"page": "{page}"}, "items_path": "data",
            "fields": {"date": "d", "high": "h", "low": "l", "close": "c",
                       "volume_usd": "v", "market_cap_usd": "m"},
            "rate_limit_per_minute": 12, "timeout_seconds": 3.5, "page_size": 50,
        }
        spec = load_provider_config(write(tmp_path, "p.json", json.dumps(doc)))
        assert spec.rate_limit == 12 and spec.page_size == 50

    def test_missing_fields_rejected(self, tmp_path):
        doc = {"name": "p", "base_url": "https://x", "fields": {"date": "d"}}
        with pytest.raises(ConfigError):
            load_provider_config(write(tmp_path, "p.json", json.dumps(doc)))

    @pytest.mark.parametrize("key,value,named", [
        ("name", 5, "name"), ("base_url", None, "base_url"), ("path", 1.5, "path"),
        ("items_path", ["data"], "items_path"), ("api_key_header", 5, "api_key_header"),
        ("query", {"page": "{page}", "limit": 100}, "query.limit"),
        ("fields", {**{name: name for name in BARS_HEADER}, "close": {"c": 1}}, "fields.close"),
    ])
    def test_non_string_value_rejected_naming_file_and_key(self, tmp_path, key, value, named):
        doc = {"name": "p", "base_url": "https://x", "fields": {name: name for name in BARS_HEADER}}
        path = write(tmp_path, "p.json", json.dumps(doc | {key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {named}=")):
            load_provider_config(path)


    @pytest.mark.parametrize("key,value,named", [
        ("path", "/b/{tok}", "path"), ("path", "/b/{}", "path"), ("path", "/b/{token.x}", "path"),
        ("path", "/b/{token!s}", "path"), ("query", {"page": "{page:03}"}, "query.page"),
        ("query", {"start": "{"}, "query.start"), ("query", {"end": "{end"}, "query.end"),
        ("query", {"q": "}"}, "query.q"), ("query", {"q": "{page:{size}}"}, "query.q"),
    ])
    def test_bad_url_template_rejected_naming_file_and_key(self, tmp_path, key, value, named):
        doc = {"name": "p", "base_url": "https://x", "fields": {name: name for name in BARS_HEADER}}
        path = write(tmp_path, "p.json", json.dumps(doc | {key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {named}=")):
            load_provider_config(path)

    def test_every_placeholder_and_escaped_braces_are_filled_in(self, tmp_path):
        day = date(2024, 3, 1)
        provider = replace(make_provider(page_size=10), path="/{token}/{start}/{end}/{{x}}",
                           query={"page": "{page}", "limit": "{page_size}", "q": "{{}}"})
        session = FakeSession(day_records(day, 1), page_size=10)
        client, _ = make_client(tmp_path, session, provider)
        client.fetch_daily("DOGE", day, day)
        assert session.calls[0]["url"] == "https://api.fake/DOGE/2024-03-01/2024-03-01/{x}"
        assert session.calls[0]["params"] == {"page": "1", "limit": "10", "q": "{}"}


class TestLoaderDomainAgreement:
    """The loader accepts exactly the inputs whose assembled series validates."""

    def test_seeded_sample(self, tmp_path):
        rng = random.Random(99)
        agreements = 0
        for case in range(60):
            rows, bars = make_bar_rows(rng)
            text = ",".join(BARS_HEADER) + "\n" + "".join(rows)
            path = write(tmp_path, f"case{case}.csv", text)
            loader_ok, domain_ok = True, True
            try:
                load_bars_csv(path)
            except DataError:
                loader_ok = False
            # domain check: construct bars directly from the raw tuples
            try:
                constructed = [DailyBar(*b) for b in sorted(bars, key=lambda b: b[0])]
                validate_series(TokenSeries("X", tuple(constructed)))
            except DataError:
                domain_ok = False
            assert loader_ok == domain_ok, text
            agreements += 1
        assert agreements == 60


def make_bar_rows(rng: random.Random):
    """Random parseable rows; ~half carry a domain violation."""
    n = rng.randint(2, 8)
    days = sorted(rng.sample(range(1, 28), n))
    rows, bars = [], []
    corrupt = rng.random() < 0.5
    corrupt_at = rng.randrange(n) if corrupt else -1
    kind = rng.choice(["low_above_high", "neg_price", "dup_date", "neg_volume"])
    for i, dd in enumerate(days):
        low = rng.uniform(1, 100)
        high = low * rng.uniform(1.0, 1.5)
        close = rng.uniform(low, high)
        volume, mcap = rng.uniform(0, 1e9), rng.uniform(0, 1e9)
        day = date(2024, 2, dd)
        if i == corrupt_at:
            if kind == "low_above_high":
                low, high = high * 1.1, low
            elif kind == "neg_price":
                close = -abs(close)
            elif kind == "dup_date" and i > 0:
                day = date(2024, 2, days[i - 1])
            elif kind == "neg_volume":
                volume = -1.0
        rows.append(f"{day},{high},{low},{close},{volume},{mcap}\n")
        bars.append((day, high, low, close, volume, mcap))
    return rows, bars


# --- row-by-row oracles for the columnar loaders ---------------------------
#
# The bar and sentiment loaders written row by row: every cell stripped and
# parsed on its own, a repeated date rejected at its later line, one
# validated DailyBar or SentimentPoint per row whose error becomes a
# MalformedRow naming the failing field. Line numbers count physical lines.

def oracle_rows(path: Path, *headers: list[str]) -> list[tuple[int, list[str]]]:
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise EmptyFile(f"{path}: file is empty")
    header = [cell.strip() for cell in numbered[0][1].split(",")]
    if header not in headers:
        raise SchemaMismatch(f"{path}: header {header!r}")
    rows = []
    for lineno, line in numbered[1:]:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(header):
            raise MalformedRow(path, lineno, header[0],
                               f"expected {len(header)} cells, got {len(cells)}")
        rows.append((lineno, cells))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return rows


def oracle_float(path, lineno, column, raw):
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(path, lineno, column, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(path, lineno, column, f"not finite: {raw!r}")
    return value


def oracle_date(path, lineno, raw):
    if re.fullmatch(r"\d{4}-\d{2}-\d{2}", raw, re.ASCII):
        try:
            return date.fromisoformat(raw)
        except ValueError:
            pass
    raise MalformedRow(path, lineno, "date", f"not a YYYY-MM-DD date: {raw!r}")


def oracle_day(path, lineno, raw, seen):
    day = oracle_date(path, lineno, raw)
    if day in seen:
        raise MalformedRow(path, lineno, "date", f"duplicate date {day}")
    seen.add(day)
    return day


def oracle_row(path, lineno, row_type, day, values):
    try:
        return row_type(day, *values)
    except DataError as exc:
        raise MalformedRow(path, lineno, str(exc).partition("=")[0], str(exc)) from None


def oracle_load_bars(path: Path, token_id: str) -> TokenSeries:
    bars, seen = [], set()
    for lineno, cells in oracle_rows(path, BARS_HEADER):
        day = oracle_day(path, lineno, cells[0], seen)
        values = [oracle_float(path, lineno, col, raw)
                  for col, raw in zip(BARS_HEADER[1:], cells[1:])]
        bars.append(oracle_row(path, lineno, DailyBar, day, values))
    bars.sort(key=lambda b: b.date)
    return TokenSeries(token_id, tuple(bars))


def oracle_load_sentiment(path: Path, token_id: str) -> SentimentSeries:
    points, seen = [], set()
    for lineno, cells in oracle_rows(path, SENTIMENT_HEADER):
        day = oracle_day(path, lineno, cells[0], seen)
        fgi = oracle_float(path, lineno, "fgi", cells[1])
        abs_return = None if cells[2] == "" else oracle_float(path, lineno, "abs_return", cells[2])
        points.append(oracle_row(path, lineno, SentimentPoint, day, (fgi, abs_return)))
    points.sort(key=lambda p: p.date)
    return SentimentSeries(token_id, tuple(points))


def outcome(load, path: Path):
    """The loaded series, or the error's class and message (file, line, column)."""
    try:
        return load(path, "X")
    except DataError as exc:
        return type(exc), str(exc)


BAD_NUMBERS = ["nan", "inf", "-inf", "oops", "", "1e400", "-1", "0", "-0", "1_0", " 7.5 "]
BAD_DATES = [
    "2024-13-01", "03/01/2024", "", " 2024-02-03 ", "2024-02-30",
    "20240102", "2024-W01-2", "2024010299",
]
BLANKS = ["", "   ", "\t"]


def csv_text(draw, header, rows):
    """The file of ``header`` and ``rows``: sometimes one row with a cell too
    many or too few, then blank lines anywhere (before the header too)."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.sampled_from(BLANKS)))
    return "\n".join(lines) + "\n"


@st.composite
def mutated_csv(draw, header, row, mutations):
    """A CSV of ``row``-drawn lines in shuffled date order, then up to three
    mutations, sometimes a row with a cell too many or too few, then blank
    lines anywhere (before the header too)."""
    n = draw(st.integers(min_value=1, max_value=10))
    days = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    rows = [[str(date(2024, 1, 1) + timedelta(days=d)), *draw(row(i))] for i, d in enumerate(days)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        kind = draw(st.sampled_from(["date", "duplicate", "pad", *mutations]))
        if kind == "date":
            rows[i][0] = draw(st.sampled_from(BAD_DATES))
        elif kind == "duplicate":
            rows[i][0] = rows[draw(st.integers(min_value=0, max_value=n - 1))][0]
        elif kind == "pad":
            col = draw(st.integers(min_value=0, max_value=len(header) - 1))
            rows[i][col] = f"  {rows[i][col]}\t"
        else:
            mutations[kind](draw, rows[i])
    return csv_text(draw, header, rows)


def bar_cells(i):
    low = st.floats(min_value=1e-3, max_value=1e3)
    return st.tuples(low, st.floats(1.0, 2.0), st.floats(0.0, 1.0),
                     st.floats(0.0, 1e12), st.floats(0.0, 1e12)).map(
        lambda t: [repr(t[0] * t[1]), repr(t[0]), repr(t[0] * (1 + (t[1] - 1) * t[2])),
                   repr(t[3]), repr(t[4])]
    )


def _set_number(draw, cells):
    cells[draw(st.integers(min_value=1, max_value=len(cells) - 1))] = draw(st.sampled_from(BAD_NUMBERS))


def _swap_low_high(draw, cells):
    cells[1], cells[2] = cells[2], cells[1]


def _negative_size(draw, cells):
    col = draw(st.sampled_from([4, 5]))
    cells[col] = "-" + cells[col]


BAR_MUTATIONS = {"number": _set_number, "low_high": _swap_low_high, "size": _negative_size}


def sentiment_cells(i):
    fgi = st.integers(0, 100).map(str) | st.floats(0.0, 100.0).map(repr)
    ret = st.just("") if i == 0 else (st.just("") | st.floats(0.0, 2.0).map(repr))
    return st.tuples(fgi, ret).map(list)


def _fgi_out_of_range(draw, cells):
    cells[1] = draw(st.sampled_from(["101", "-1", "100.5", "-0.0", "100"]))


def _bad_return(draw, cells):
    cells[2] = draw(st.sampled_from(["-0.1", "-2", "-1e-9", "-0", "nan", "inf", "oops", "  "]))


SENTIMENT_MUTATIONS = {"number": _set_number, "fgi": _fgi_out_of_range, "ret": _bad_return}
FILE_SETTINGS = settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestColumnarLoadersMatchRowOracle:
    """Same series, or the same error class and message (file, line, column)."""

    @given(text=mutated_csv(BARS_HEADER, bar_cells, BAR_MUTATIONS))
    @example(text=",".join(BARS_HEADER) + "\n2024-01-01,90,110,100,1,1\n2024-01-02,110,90,100,1,1\n"
             "2024-01-03,oops,90,100,1,1\n")  # line 2, column 'low'
    @FILE_SETTINGS
    def test_bars(self, tmp_path, text):
        path = write(tmp_path, "bars.csv", text)
        assert outcome(load_bars_csv, path) == outcome(oracle_load_bars, path)

    @given(text=mutated_csv(SENTIMENT_HEADER, sentiment_cells, SENTIMENT_MUTATIONS))
    @example(text=",".join(SENTIMENT_HEADER) + "\n2024-01-02,50,-0.5\n2024-01-01,101,\n"
             "2024-01-02,50,0.1\n")  # line 2, column 'abs_return'
    @FILE_SETTINGS
    def test_sentiment(self, tmp_path, text):
        path = write(tmp_path, "fgi.csv", text)
        assert outcome(load_sentiment_csv, path) == outcome(oracle_load_sentiment, path)

    def test_padded_date_cell_is_accepted(self, tmp_path):
        text = BARS_OK.replace("2024-01-02,", " 2024-01-02 ,")
        assert load_bars_csv(write(tmp_path, "a.csv", text), token_id="X") == load_bars_csv(
            write(tmp_path, "b.csv", BARS_OK), token_id="X"
        )


# --- row-by-row oracle for the history loader ------------------------------
#
# Every cell stripped and parsed on its own, in file order: date, token,
# metric, value (through ScorePoint), then a repeated (token, metric, date)
# at its later line. The rows are grouped into one ScoreSeries per (token,
# metric), each sorted by date, in (token, metric) order.

def oracle_load_history(path: Path, token_id=None) -> list[ScoreSeries]:
    grouped, seen = defaultdict(list), set()
    for lineno, (day_raw, token, metric_raw, value_raw) in oracle_rows(path, HISTORY_HEADER):
        day = oracle_date(path, lineno, day_raw)
        if not token:
            raise MalformedRow(path, lineno, "token", "empty token id")
        try:
            metric = Metric(metric_raw)
        except ValueError:
            raise MalformedRow(path, lineno, "metric", f"unknown metric {metric_raw!r}") from None
        value = oracle_float(path, lineno, "value", value_raw)
        point = oracle_row(path, lineno, ScorePoint, day, (value,))
        if (token, metric, day) in seen:
            raise MalformedRow(path, lineno, "date",
                               f"duplicate row for token {token!r}, {metric.value}, {day}")
        seen.add((token, metric, day))
        grouped[token, metric].append(point)
    return [
        ScoreSeries(token, metric, sorted(points, key=lambda p: p.date))
        for (token, metric), points in sorted(grouped.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    ]


@st.composite
def history_csv(draw):
    """Unique (day, token, metric) rows in any order (often date order), then
    up to three mutations, sometimes a row with a cell too many or too few,
    then blank lines anywhere."""
    keys = draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["X", "PEPE"]),
                                   st.sampled_from([m.value for m in Metric])),
                         min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        keys.sort()
    rows = [[str(date(2024, 1, 1) + timedelta(days=d)), token, metric,
             repr(draw(st.floats(0.0, 10.0)))] for d, token, metric in keys]
    n = len(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["value", "repeat", "date", "token", "metric", "pad"]))
        if kind == "value":
            rows[i][3] = draw(st.sampled_from(["-0.5", "-1e-9", "1e-320", *BAD_NUMBERS]))
        elif kind == "repeat":  # row j's key again, before or after it
            rows[i][:3] = rows[j][:3]
        elif kind == "date":
            rows[i][0] = draw(st.sampled_from(BAD_DATES))
        elif kind == "token":
            rows[i][1] = draw(st.sampled_from(["", "  ", " X", "PEPE\t"]))
        elif kind == "metric":
            rows[i][2] = draw(st.sampled_from(["VDS", "risk", "", " vds", "sas "]))
        else:
            col = draw(st.integers(0, 3))
            rows[i][col] = f"  {rows[i][col]}\t"
    return csv_text(draw, HISTORY_HEADER, rows)


class TestHistoryLoaderMatchesRowOracle:
    """Same series, or the same error class and message (file, line, column)."""

    @given(text=history_csv())
    @example(text="date,token,metric,value\n2024-01-02,X,vds,1\n2024-01-02,X,vds,2\n"
             "2024-01-03,,vds,oops\n")  # line 3, column 'date'
    @FILE_SETTINGS
    def test_history(self, tmp_path, text):
        path = write(tmp_path, "history.csv", text)
        assert outcome(lambda p, _: load_history_csv(p), path) == outcome(oracle_load_history, path)

    def test_repeat_is_named_before_a_later_bad_cell(self, tmp_path):
        text = ("date,token,metric,value\n2024-01-02,X,vds,1\n2024-01-01,X,vds,2\n"
                "2024-01-02,X,vds,3\n2024-01-03,X,vds,oops\n")
        with pytest.raises(MalformedRow) as err:
            load_history_csv(write(tmp_path, "h.csv", text))
        assert (err.value.line, err.value.column) == (4, "date")


# --- row-by-row oracles for the table and holder loaders --------------------
#
# Each row in file order: the token (empty, then repeated), every number,
# the chain role and base, then the summary type's own rule, whose error
# becomes a MalformedRow. Holder rows named in ``exclude`` are skipped before
# their share is read; the share sum is checked over the file, then the top
# n shares, descending, make the snapshot.

def oracle_table_token(path, lineno, token, seen):
    if not token:
        raise MalformedRow(path, lineno, "token", "empty token id")
    if token in seen:
        raise MalformedRow(path, lineno, "token", f"duplicate row for token {token!r}")


def oracle_load_volatility_table(path: Path, token_id=None) -> dict:
    out = {}
    for lineno, (token, *cells) in oracle_rows(path, VOLATILITY_TABLE_HEADER):
        oracle_table_token(path, lineno, token, out)
        avg_pct, max_pct, volume, mcap = [
            oracle_float(path, lineno, col, raw)
            for col, raw in zip(VOLATILITY_TABLE_HEADER[1:5], cells[:4])
        ]
        for col, size in zip(VOLATILITY_TABLE_HEADER[3:5], (volume, mcap)):
            if size < 0:
                raise MalformedRow(path, lineno, col, f"negative size {size}")
        role, base = cells[4:]
        if role not in ("standalone", "hosted"):
            raise MalformedRow(path, lineno, "chain_role", f"unknown role {role!r}")
        if role == "standalone" and base:
            raise MalformedRow(path, lineno, "base", f"standalone token {token} must not name a base")
        if role == "hosted" and not base:
            raise MalformedRow(path, lineno, "base", f"hosted token {token} needs a base")
        try:
            agg = VolatilityAggregate(token, avg_pct / 100, max_pct / 100, volume, mcap)
        except DataError as exc:
            raise MalformedRow(path, lineno, "avg_vol_pct", str(exc)) from None
        out[token] = (agg, ChainRole(base or None))
    return out


def oracle_load_fgi_table(path: Path, token_id=None) -> dict:
    out = {}
    for lineno, (token, *cells) in oracle_rows(path, FGI_TABLE_HEADER):
        oracle_table_token(path, lineno, token, out)
        f_bar, f_max, f_min, q_g_pct, q_f_pct, delta_f, delta_p_pct = [
            oracle_float(path, lineno, col, raw) for col, raw in zip(FGI_TABLE_HEADER[1:], cells)
        ]
        try:
            out[token] = FgiIndicators(token, f_bar, f_max, f_min, q_g_pct / 100, q_f_pct / 100,
                                       delta_f, delta_p_pct / 100)
        except DataError as exc:
            column = ("delta_f_max" if delta_f < 0 else "delta_p_max_pct" if delta_p_pct < 0
                      else "f_bar" if not f_min <= f_bar <= f_max else "q_g_pct")
            raise MalformedRow(path, lineno, column, str(exc)) from None
    return out


def oracle_load_holders(path: Path, token_id: str, n: int, exclude: set[str]) -> HolderSnapshot:
    shares = []
    for lineno, (key, raw) in oracle_rows(path, ["rank", "share"], ["address", "share"]):
        if key in exclude:
            continue
        share = oracle_float(path, lineno, "share", raw)
        if share < 0:
            raise MalformedRow(path, lineno, "share", f"negative share {share}")
        if share > 1:
            raise MalformedRow(path, lineno, "share", f"share {share} above 1")
        shares.append(share)
    if not shares:
        raise EmptyFile(f"{path}: no data rows")
    total = math.fsum(shares)
    if total > 1 + _SHARE_SUM_TOLERANCE:
        raise InvalidShares(f"{path}: shares sum to {total}, exceeding total supply")
    return HolderSnapshot(token_id, tuple(sorted(shares, reverse=True)[:n]))


@st.composite
def mutated_table(draw, header, cells, mutations):
    """Rows of distinct tokens and ``cells``-drawn values, then up to three
    mutations, sometimes a row with a cell too many or too few, then blank
    lines anywhere."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [[f"T{i}", *draw(cells)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        kind = draw(st.sampled_from(["token", "number", "pad", *mutations]))
        if kind == "token":  # empty, padded or another row's
            other = rows[draw(st.integers(min_value=0, max_value=n - 1))][0]
            rows[i][0] = draw(st.sampled_from(["", "  ", f" {rows[i][0]}\t", other]))
        elif kind == "number":
            _set_number(draw, rows[i])
        elif kind == "pad":
            col = draw(st.integers(min_value=0, max_value=len(header) - 1))
            rows[i][col] = f"  {rows[i][col]}\t"
        else:
            mutations[kind](draw, rows[i])
    return csv_text(draw, header, rows)


volatility_cells = st.tuples(
    st.floats(0.0, 50.0), st.floats(1.0, 3.0), st.floats(0.0, 1e3), st.floats(0.0, 1e3),
    st.sampled_from(["", "ETH", "SOL"]),
).map(lambda t: [repr(t[0]), repr(t[0] * t[1]), repr(t[2]), repr(t[3]),
                 "hosted" if t[4] else "standalone", t[4]])


def _bad_role(draw, cells):
    cells[5:] = draw(st.sampled_from([
        ["standalone", "ETH"], ["hosted", ""], ["hosted", "  "], ["Hosted", "ETH"], ["chain", ""], ["", ""],
    ]))


def _avg_above_max(draw, cells):
    cells[1], cells[2] = cells[2], cells[1]


def _negative_table_size(draw, cells):
    col = draw(st.sampled_from([3, 4]))  # max_volume_busd, max_mcap_busd
    cells[col] = "-" + cells[col]


VOLATILITY_MUTATIONS = {"role": _bad_role, "avg_max": _avg_above_max, "size": _negative_table_size}

# f_bar, f_max, f_min, q_g_pct, q_f_pct, delta_f_max, delta_p_max_pct
fgi_table_cells = st.tuples(
    st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3).map(sorted),
    st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 100.0), st.floats(0.0, 200.0),
).map(lambda t: [repr(t[0][1]), repr(t[0][2]), repr(t[0][0]), *map(repr, t[1:])])


def _fgi_mean_outside(draw, cells):
    if draw(st.booleans()):
        cells[1] = repr(float(cells[2]) + 1)  # above f_max
    else:
        cells[2], cells[3] = cells[3], cells[2]  # f_max below f_min


def _extreme_shares(draw, cells):
    cells[4:6] = draw(st.sampled_from([["60", "50.5"], ["100", "1e-6"], ["-1", "0"], ["0", "-0.5"]]))


def _negative_move(draw, cells):
    col = draw(st.sampled_from([6, 7]))  # delta_f_max, delta_p_max_pct
    cells[col] = draw(st.sampled_from(["-1", "-5e-324", "-" + cells[col]]))


FGI_TABLE_MUTATIONS = {"order": _fgi_mean_outside, "extremes": _extreme_shares,
                       "move": _negative_move}


@st.composite
def holders_csv(draw):
    """A rank or address holder file, up to three mutations, sometimes a row
    with a cell too many or too few, blank lines; with an ``exclude`` set over
    its keys and a top n."""
    header = draw(st.sampled_from([["rank", "share"], ["address", "share"]]))
    n = draw(st.integers(min_value=1, max_value=8))
    keys = [str(i + 1) if header[0] == "rank" else f"0x{i:02x}" for i in range(n)]
    rows = [[key, repr(draw(st.floats(0.0, 0.125)))] for key in keys]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        kind = draw(st.sampled_from(["number", "negative", "large", "pad"]))
        if kind == "number":
            rows[i][1] = draw(st.sampled_from(BAD_NUMBERS))
        elif kind == "negative":
            rows[i][1] = draw(st.sampled_from(["-0.1", "-1e-9", "-5e-324", "-0.0"]))
        elif kind == "large":  # the sum passes 1, or one share passes it within the tolerance
            rows[i][1] = draw(st.sampled_from(["0.9", "1", "1.0000000005", "2"]))
        else:
            col = draw(st.integers(min_value=0, max_value=1))
            rows[i][col] = f"  {rows[i][col]}\t"
    exclude = draw(st.sets(st.sampled_from(keys)))
    return csv_text(draw, header, rows), exclude, draw(st.integers(min_value=2, max_value=5))


TABLE_SETTINGS = settings(FILE_SETTINGS, derandomize=True)


class TestTableAndHolderLoadersMatchRowOracle:
    """Same value, or the same error class and message (file, line, column)."""

    @given(text=mutated_table(VOLATILITY_TABLE_HEADER, volatility_cells, VOLATILITY_MUTATIONS))
    @example(text=",".join(VOLATILITY_TABLE_HEADER) + "\nA,50,40,1,2,standalone,\n"
             "B,5,40,1,2,hosted,\n,5,40,1,2,standalone,\n")  # line 2, column 'avg_vol_pct'
    @TABLE_SETTINGS
    def test_volatility_table(self, tmp_path, text):
        path = write(tmp_path, "volatility.csv", text)
        assert outcome(lambda p, _: load_volatility_table(p), path) == outcome(
            oracle_load_volatility_table, path)

    @given(text=mutated_table(FGI_TABLE_HEADER, fgi_table_cells, FGI_TABLE_MUTATIONS))
    @example(text=",".join(FGI_TABLE_HEADER) + "\nA,50,90,10,60,50,50,10\n"
             "A,50,oops,10,1,1,50,10\n")  # line 2, column 'q_g_pct'
    @example(text=",".join(FGI_TABLE_HEADER) + "\nA,50,90,10,60,50,50,-1\n"
             "B,95,90,10,1,1,50,10\n")  # line 2, column 'delta_p_max_pct'
    @TABLE_SETTINGS
    def test_fgi_table(self, tmp_path, text):
        path = write(tmp_path, "fgi.csv", text)
        assert outcome(lambda p, _: load_fgi_table(p), path) == outcome(oracle_load_fgi_table, path)

    @given(case=holders_csv())
    @example(case=("rank,share\n1,1.5\n2,-0.1\n3,oops\n", set(), 2))  # line 2, above 1
    @TABLE_SETTINGS
    def test_holders(self, tmp_path, case):
        text, exclude, n = case
        path = write(tmp_path, "holders.csv", text)
        assert outcome(lambda p, t: load_holders_csv(p, t, n, exclude), path) == outcome(
            lambda p, t: oracle_load_holders(p, t, n, exclude), path)

    def test_hosted_tokens_share_one_role_per_base(self, tmp_path):
        text = (",".join(VOLATILITY_TABLE_HEADER) + "\nA,1,2,3,4,hosted,ETH\nB,1,2,3,4,hosted,ETH\n"
                "ETH,1,2,3,4,standalone,\n")
        table = load_volatility_table(write(tmp_path, "v.csv", text))
        assert table["A"][1] is table["B"][1] == ChainRole.hosted_on("ETH")


class TestPhysicalLineNumbers:
    def test_blank_lines_count_and_the_file_is_named(self, tmp_path):
        lines = BARS_OK.splitlines()
        text = "\n".join([lines[0], "", "   ", lines[1].replace(",90,", ",oops,")]) + "\n"
        path = write(tmp_path, "x.csv", text)
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(path)
        assert (err.value.line, err.value.column) == (4, "low")
        assert str(path) in str(err.value)

    def test_holders_rows_are_numbered_by_the_shared_reader(self, tmp_path):
        path = write(tmp_path, "h.csv", "\nrank,share\n1,0.2\n\n2,0.1,9\n")
        with pytest.raises(MalformedRow) as err:
            load_holders_csv(path)
        assert (err.value.line, err.value.column) == (5, "rank")
        assert str(path) in str(err.value)

    def test_a_cell_too_many_then_one_too_few_fail_at_the_first(self, tmp_path):
        # the file holds as many commas as a well-formed one: every line is counted
        lines = BARS_OK.splitlines()
        text = "\n".join([lines[0], lines[1] + ",1", lines[2], lines[3].rpartition(",")[0]]) + "\n"
        with pytest.raises(MalformedRow) as err:
            load_bars_csv(write(tmp_path, "x.csv", text))
        assert (err.value.line, err.value.column) == (2, "date")
        assert str(err.value).endswith("expected 6 cells, got 7")
