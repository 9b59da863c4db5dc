"""Tests for identifier anonymisation."""

from __future__ import annotations

import pytest

from repro.trace import anonymize
from repro.trace.anonymize import Anonymizer


class TestAnonymizer:
    def test_stable_within_instance(self):
        anon = Anonymizer(salt="s")
        assert anon.user("10.0.0.1") == anon.user("10.0.0.1")

    def test_stable_across_instances_with_same_salt(self):
        assert Anonymizer(salt="s").user("x") == Anonymizer(salt="s").user("x")

    def test_different_salts_unlinkable(self):
        assert Anonymizer(salt="a").user("x") != Anonymizer(salt="b").user("x")

    def test_different_inputs_differ(self):
        anon = Anonymizer()
        assert anon.user("10.0.0.1") != anon.user("10.0.0.2")

    def test_namespacing_prevents_cross_kind_collisions(self):
        anon = Anonymizer()
        assert anon.token("user", "same") != anon.token("url", "same")

    def test_prefixes(self):
        anon = Anonymizer()
        assert anon.user("x").startswith("u")
        assert anon.url("http://example/a.mp4").startswith("o")

    def test_token_length(self):
        anon = Anonymizer(digest_chars=24)
        assert len(anon.token("user", "x")) == 24

    def test_digest_chars_bounds(self):
        with pytest.raises(ValueError):
            Anonymizer(digest_chars=4)
        with pytest.raises(ValueError):
            Anonymizer(digest_chars=100)

    def test_raw_value_not_in_token(self):
        anon = Anonymizer()
        assert "10.0.0.1" not in anon.user("10.0.0.1")


class TestMemo:
    """The memoised ``user``/``url`` tokens are exactly the hashed ones."""

    RAW = [f"10.0.{i // 7}.{i % 7}" for i in range(40)]

    def _check(self, anon: Anonymizer) -> None:
        for raw in self.RAW + self.RAW[::-1]:
            assert anon.user(raw) == "u" + anon.token("user", raw)
            assert anon.url(raw) == "o" + anon.token("url", raw)

    def test_tokens_before_the_cap(self):
        anon = Anonymizer(salt="s", digest_chars=20)
        self._check(anon)
        assert len(anon._users) == len(anon._urls) == len(self.RAW)

    def test_tokens_after_the_cap(self, monkeypatch):
        monkeypatch.setattr(anonymize, "MEMO_CAP", 5)
        anon = Anonymizer(salt="s")
        self._check(anon)
        assert len(anon._users) <= 5 and len(anon._urls) <= 5

    def test_same_raw_string_gives_different_user_and_url_tokens(self, monkeypatch):
        monkeypatch.setattr(anonymize, "MEMO_CAP", 3)
        anon = Anonymizer()
        for raw in self.RAW:
            user, url = anon.user(raw), anon.url(raw)
            assert user[1:] != url[1:]
            assert (anon.user(raw), anon.url(raw)) == (user, url)

    def test_memo_is_per_salt(self):
        first, second = Anonymizer(salt="a"), Anonymizer(salt="b")
        assert first.user("x") != second.user("x")
        assert first.url("x") != second.url("x")
