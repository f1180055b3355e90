"""Canonical machine format round trips and stability."""

import json
import random
import re
from fractions import Fraction as F

import pytest

import effectdiagrams as ed
from effectdiagrams import gen, serialize

from strategies import ALL_KINDS, CARRIER


class TestRoundTrip:
    def test_all_kinds(self):
        rng = random.Random(1)
        for kind in ALL_KINDS:
            for _ in range(40):
                mu = gen.random_value(kind, rng, CARRIER)
                assert serialize.loads(serialize.dumps(mu)) == mu

    def test_int_carriers_survive(self):
        mu = ed.MonadValue(ed.DIST, {1: F(1, 2), 2: F(1, 4)})
        assert serialize.loads(serialize.dumps(mu)) == mu


class TestFormat:
    def test_dist_shape(self):
        mu = ed.MonadValue(ed.DIST, {"b": F(1, 4), "a": F(1, 2)})
        obj = serialize.to_obj(mu)
        # entries in canonical order, rationals in lowest terms
        assert obj == {"kind": "dist",
                       "entries": [["a", "1/2"], ["b", "1/4"]]}

    def test_serialization_is_canonical(self):
        a = ed.MonadValue(ed.DIST, {"a": F(2, 4), "b": F(1, 4)})
        b = ed.MonadValue(ed.DIST, {"b": F(1, 4), "a": F(1, 2)})
        assert serialize.dumps(a) == serialize.dumps(b)

    def test_state_stores_as_bit_strings(self):
        kind = ed.state_kind(("l0", "l1"))
        obj = serialize.to_obj(ed.unit(kind, "v"))
        assert obj["table"][0] == ["00", ["v", "00"]]
        assert [row[0] for row in obj["table"]] == ["00", "01", "10", "11"]

    def test_whole_probability_accepted_both_ways(self):
        mu = serialize.from_obj({"kind": "dist", "entries": [["x", "1"]]})
        assert mu == ed.unit(ed.DIST, "x")
        mu2 = serialize.from_obj({"kind": "dist",
                                  "entries": [["x", "2/2"]]})
        assert mu2 == mu

    @pytest.mark.parametrize("text, want", [
        ("3/16", F(3, 16)), ("2/4", F(1, 2)), ("1", F(1)), ("007/8", F(7, 8)),
        ("0", None)])
    def test_probability_strings_accepted(self, text, want):
        mu = serialize.from_obj({"kind": "dist", "entries": [["x", text]]})
        assert dict(mu.payload) == ({} if want is None else {"x": want})
        assert all(type(p) is F for p in mu.payload.values())

    @pytest.mark.parametrize("prob", [
        0.1, 1, 0, True, None, [1, 2], " 2/4 ", "1e-1", "1/0", "0/0", "-1/2",
        "+1", "1/", "/2", "1/2/3", "1.5", "\u0663", "1_0", ""])
    def test_probability_outside_the_format_rejected(self, prob):
        with pytest.raises(ed.KindError,
                           match="^bad serialized dist value: probability"):
            serialize.from_obj({"kind": "dist", "entries": [["x", prob]]})

    @pytest.mark.parametrize("text, message", [
        ('{"kind":"dist","entries":[["a","1/2"],["a","0"]]}',
         "dist value: entries list an element twice"),
        ('{"kind":"dist","entries":[[1,"1/2"],[1,"1/2"]]}',
         "dist value: entries list an element twice"),
        ('{"kind":"state","locations":["l0"],"table":[["0",["a","0"]],'
         '["0",["b","1"]],["1",["a","1"]]]}',
         "state value: table lists a store twice"),
        ('{"kind":"maybe","value":"a","bottom":true}',
         "maybe value: value and bottom given together"),
        ('{"kind":"exc","exceptions":["err"],"value":"a","raised":"err"}',
         "exc value: value and raised given together"),
        ('{"kind":"output","alphabet":["a"],"out":"a","raised":"a",'
         '"bottom":true}',
         "output value: raised and bottom given together"),
    ], ids=["dist", "dist-int", "state", "maybe", "exc", "output"])
    def test_a_key_named_twice_is_refused(self, text, message):
        # none of them is read as its last occurrence
        with pytest.raises(ed.KindError,
                           match=f"^bad serialized {re.escape(message)}$"):
            serialize.loads(text)

    def test_bottom_false_beside_a_value_reads_the_value(self):
        assert serialize.loads('{"kind":"maybe","value":"a","bottom":false}') \
            == ed.unit(ed.MAYBE, "a")

    def test_rejects_malformed(self):
        with pytest.raises(ed.KindError):
            serialize.from_obj({"no": "kind"})
        with pytest.raises(ed.KindError):
            serialize.from_obj({"kind": "wat"})


class TestRenderValue:
    def test_samples(self):
        okind = ed.output_kind(("a", "b"))
        assert serialize.render_value(ed.bottom(ed.MAYBE)) == "↑"
        assert serialize.render_value(
            ed.MonadValue(ed.DIST, {"v": F(3, 4), "w": F(1, 4)})) == \
            "{v: 3/4, w: 1/4}"
        assert serialize.render_value(
            ed.MonadValue(okind, ("ab", ed.Present("v")))) == '("ab", v)'
        assert serialize.render_value(
            ed.MonadValue(ed.POWERSET, frozenset())) == "∅"
        exc = ed.exception_kind(("err",))
        assert serialize.render_value(
            ed.MonadValue(exc, ed.Raised("err"))) == "raise err"

    def test_json_value_of_terms_is_their_syntax(self):
        term = ed.parse("\\x. x y")
        mu = ed.unit(ed.MAYBE, term)
        obj = serialize.to_obj(mu)
        assert obj["value"] == "\\x. x y"
        assert json.dumps(obj)
