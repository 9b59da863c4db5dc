"""Tests for identifier anonymisation."""

from __future__ import annotations

import pytest

from repro.trace.anonymize import Anonymizer


class TestAnonymizer:
    def test_stable_within_instance(self):
        anon = Anonymizer(salt="s")
        assert anon.user("10.0.0.1") == anon.user("10.0.0.1")

    def test_stable_across_instances_with_same_salt(self):
        assert Anonymizer(salt="s").user("x") == Anonymizer(salt="s").user("x")

    def test_different_salts_unlinkable(self):
        assert Anonymizer(salt="a").user("x") != Anonymizer(salt="b").user("x")
        assert Anonymizer(salt="a").url("x") != Anonymizer(salt="b").url("x")

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

    def test_same_raw_string_gives_different_user_and_url_tokens(self):
        anon = Anonymizer()
        for raw in (f"10.0.{i // 7}.{i % 7}" for i in range(40)):
            user, url = anon.user(raw), anon.url(raw)
            assert user[1:] != url[1:]
            assert (anon.user(raw), anon.url(raw)) == (user, url)
