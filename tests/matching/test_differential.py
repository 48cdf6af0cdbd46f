"""Differential suite: every engine, both match paths, identical answers.

The paper's architecture bets that the pub/sub mechanism can be swapped
(Siena first, then the dedicated matcher) without disturbing the semantics
above it.  The batch publish pipeline adds a second axis: per-event
``match`` versus amortised ``match_batch``.  This suite pins both axes at
once — Hypothesis generates subscription tables and event streams, and
every engine on every path must return exactly the match sets the
brute-force oracle returns, including across registration churn (which
must invalidate the forwarding engine's batch memo).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import service_id_from_name
from repro.matching.engine import BruteForceMatcher, make_engine
from tests.matching.strategies import attribute_maps, filters

SID = service_id_from_name("diff")

#: Engines under test.
ENGINE_NAMES = ("forwarding", "siena", "siena-bare")

subscription_tables = st.lists(
    st.lists(filters(), min_size=1, max_size=3),   # filters per subscription
    min_size=1, max_size=8)

event_streams = st.lists(attribute_maps(), min_size=1, max_size=12)


def _subscribe_all(engines, table):
    from repro.matching.filters import Subscription
    for index, filter_list in enumerate(table):
        subscription = Subscription(index + 1, SID, filter_list)
        for engine in engines:
            engine.subscribe(subscription)


def _ids(subscriptions):
    return [s.sub_id for s in subscriptions]


class TestEnginesAgreeOnBothPaths:
    @settings(max_examples=120, deadline=None)
    @given(subscription_tables, event_streams)
    def test_match_and_match_batch_agree_with_oracle(self, table, stream):
        oracle = BruteForceMatcher()
        engines = [make_engine(name) for name in ENGINE_NAMES]
        _subscribe_all([oracle] + engines, table)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        # The oracle's own batch path must agree with its per-event path.
        assert [_ids(subs) for subs in oracle.match_batch(stream)] == expected

        for engine in engines:
            per_event = [_ids(engine.match(attrs)) for attrs in stream]
            assert per_event == expected, engine.name
            batched = [_ids(subs) for subs in engine.match_batch(stream)]
            assert batched == expected, engine.name

    @settings(max_examples=80, deadline=None)
    @given(subscription_tables, event_streams, st.data())
    def test_agreement_survives_registration_churn(self, table, stream, data):
        """Batch, churn registrations, batch again: memos must invalidate."""
        oracle = BruteForceMatcher()
        engines = [make_engine(name) for name in ENGINE_NAMES]
        _subscribe_all([oracle] + engines, table)

        # First batch round warms any per-engine caches.
        warm = [_ids(subs) for subs in oracle.match_batch(stream)]
        for engine in engines:
            assert [_ids(subs) for subs in engine.match_batch(stream)] == warm, \
                engine.name

        # Unsubscribe a random subset, leaving at least one table entry.
        to_remove = data.draw(st.sets(st.integers(1, len(table)),
                                      max_size=len(table) - 1))
        for sub_id in sorted(to_remove):
            oracle.unsubscribe(sub_id)
            for engine in engines:
                engine.unsubscribe(sub_id)

        expected = [_ids(oracle.match(attrs)) for attrs in stream]
        assert [_ids(subs) for subs in oracle.match_batch(stream)] == expected
        for engine in engines:
            assert [_ids(subs) for subs in engine.match_batch(stream)] \
                == expected, engine.name
            assert [_ids(engine.match(attrs)) for attrs in stream] \
                == expected, engine.name

    @settings(max_examples=60, deadline=None)
    @given(subscription_tables, event_streams)
    def test_batch_counts_events_matched_like_per_event(self, table, stream):
        per_event = make_engine("forwarding")
        batched = make_engine("forwarding")
        _subscribe_all([per_event, batched], table)
        for attrs in stream:
            per_event.match(attrs)
        batched.match_batch(stream)
        assert per_event.events_matched == batched.events_matched


class TestBatchEdgeCases:
    def test_empty_batch(self):
        for name in ("brute",) + ENGINE_NAMES:
            engine = make_engine(name)
            assert engine.match_batch([]) == []
            assert engine.events_matched == 0

    def test_batch_on_empty_engine(self):
        for name in ("brute",) + ENGINE_NAMES:
            engine = make_engine(name)
            assert engine.match_batch([{"a": 1}, {}]) == [[], []]

    def test_forwarding_memo_reuse_is_observable(self):
        from repro.matching.filters import Filter, Subscription
        engine = make_engine("forwarding")
        engine.subscribe(Subscription(1, SID, [Filter.where("t", hr=(">", 5))]))
        stream = [{"type": "t", "hr": 9}] * 50
        engine.match_batch(stream)
        assert engine.memo_hits > engine.memo_misses
        hits = engine.memo_hits
        # Registration churn invalidates the memo wholesale.
        engine.subscribe(Subscription(2, SID, [Filter.where("t")]))
        engine.match_batch(stream[:1])
        assert engine.memo_misses >= 3   # recomputed after invalidation
        assert engine.memo_hits >= hits
