"""Privacy-preserving anonymisation of identifiers.

The paper's logs anonymise all personally identifiable information
(IP addresses, URLs) "without affecting the usefulness of our analysis"
(Section III).  :class:`Anonymizer` reproduces that property: a salted
keyed hash maps raw identifiers to stable opaque tokens, so the same user
or URL always maps to the same token within one trace but the raw value is
not recoverable without the salt.
"""

from __future__ import annotations

import hashlib


class Anonymizer:
    """Stable, salted anonymisation of identifier strings.

    Parameters
    ----------
    salt:
        Secret salt mixed into every hash.  Two anonymizers with the same
        salt produce identical tokens; different salts produce unlinkable
        ones.
    digest_chars:
        Length of the hex token to emit (default 16 → 64 bits, ample for the
        paper's 80 M-user scale without collisions in practice).
    """

    def __init__(self, salt: str = "repro", digest_chars: int = 16):
        if digest_chars < 8 or digest_chars > 64:
            raise ValueError(f"digest_chars must be in [8, 64], got {digest_chars}")
        self._salt = salt.encode("utf-8")
        self._digest_chars = digest_chars

    def token(self, kind: str, raw: str) -> str:
        """Anonymise ``raw`` within namespace ``kind`` (e.g. "user", "url").

        Namespacing prevents a user id and a URL that happen to share text
        from colliding into the same token.
        """
        digest = hashlib.blake2b(
            f"{kind}:{raw}".encode("utf-8"),
            key=self._salt,
            digest_size=32,
        ).hexdigest()
        return digest[: self._digest_chars]

    def user(self, raw_user: str) -> str:
        """Anonymise a user identifier (e.g. an IP address)."""
        return "u" + self.token("user", raw_user)

    def url(self, raw_url: str) -> str:
        """Anonymise/hash an object URL."""
        return "o" + self.token("url", raw_url)
