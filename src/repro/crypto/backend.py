"""The two crypto providers and the process-wide choice between them.

The reproduction ships two interchangeable crypto providers:

* ``reference`` — the from-scratch, RFC/FIPS-faithful implementations
  in :mod:`repro.crypto.sha1` / :mod:`repro.crypto.sha256` /
  :mod:`repro.crypto.blake2s` / :mod:`repro.crypto.hmac`.  They are the
  ground truth the paper's constructions are checked against.
* ``accelerated`` — the CPython stdlib (``hashlib`` / ``hmac``), which
  computes bit-for-bit identical digests one to two orders of magnitude
  faster.  This is the default.

The provider is a process-wide choice, in decreasing precedence:

1. a scope installed with :func:`use_backend` (tests);
2. the ``ERASMUS_CRYPTO_BACKEND`` environment variable, falling back to
   ``accelerated``.

Every object that computes digests or tags (architecture, verification
core, DRBG) resolves the provider once, when it is built.  Hot loops
also resolve the primitive: :meth:`CryptoBackend.hash_function` returns
a ``data -> digest`` callable and :meth:`CryptoBackend.keyed_mac` a
``(key, data) -> tag`` callable for one of the paper's three MACs.
Each is bound once per provider and name and shared by every caller,
so a device holds a reference, not a closure of its own.  The
equivalence suite (``tests/crypto/test_backend.py``) pins
the two providers to identical outputs on standard test vectors and
randomized inputs, so switching providers never changes any schedule,
digest, MAC or DRBG stream.
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import hmac as _stdlib_hmac
import os
from typing import Callable, Dict, Iterator

ENV_VAR = "ERASMUS_CRYPTO_BACKEND"
DEFAULT_BACKEND_NAME = "accelerated"

_HASHES = ("sha1", "sha256", "blake2s")
#: The hash under each of the paper's HMAC constructions.
_HMAC_HASHES = {"hmac-sha1": "sha1", "hmac-sha256": "sha256"}


class CryptoBackend(abc.ABC):
    """One provider of the hash / HMAC / keyed-BLAKE2s primitives.

    Subclasses implement the three primitive families and may bind
    faster resolved callables (:meth:`_bind_hash`, :meth:`_bind_mac`);
    the generic MAC dispatch (:meth:`mac`, :meth:`mac_function`) and the
    per-provider resolution cache are shared.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._hash_functions: Dict[str, Callable[[bytes], bytes]] = {}
        self._keyed_macs: Dict[str, Callable[[bytes, bytes], bytes]] = {}

    @abc.abstractmethod
    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        """One-shot hash digest (``sha1`` / ``sha256`` / ``blake2s``)."""

    @abc.abstractmethod
    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        """One-shot HMAC digest under the named hash."""

    @abc.abstractmethod
    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        """Keyed BLAKE2s MAC (RFC 7693 keyed mode)."""

    @abc.abstractmethod
    def digest_size(self, hash_name: str) -> int:
        """Digest size in bytes of the named hash."""

    # ------------------------------------------------------------------
    # Resolved primitives for hot loops
    # ------------------------------------------------------------------
    def hash_function(self, hash_name: str) -> Callable[[bytes], bytes]:
        """The ``data -> digest`` callable for ``sha1``/``sha256``/``blake2s``.

        Resolved once per provider and name; every caller shares it.
        An unknown name raises :class:`ValueError` here, not per call.
        """
        lowered = hash_name.lower()
        function = self._hash_functions.get(lowered)
        if function is None:
            if lowered not in _HASHES:
                raise ValueError(f"unknown hash: {hash_name!r}")
            function = self._hash_functions[lowered] = \
                self._bind_hash(lowered)
        return function

    def keyed_mac(self, mac_name: str) -> Callable[[bytes, bytes], bytes]:
        """The ``(key, data) -> tag`` callable for one of the paper's MACs.

        Resolved once per provider and name; every caller shares it.
        The key is an argument, never bound: callers that model a
        protected key read it on every call.  An unknown name raises
        :class:`ValueError` here, not per call.
        """
        lowered = mac_name.lower()
        function = self._keyed_macs.get(lowered)
        if function is None:
            if lowered != "keyed-blake2s" and lowered not in _HMAC_HASHES:
                raise ValueError(f"backend {self.name!r} cannot compute "
                                 f"MAC {mac_name!r}")
            function = self._keyed_macs[lowered] = self._bind_mac(lowered)
        return function

    def _bind_hash(self, hash_name: str) -> Callable[[bytes], bytes]:
        """Bind a known, lower-cased hash name to its digest callable."""
        hash_digest = self.hash_digest
        return lambda data: hash_digest(hash_name, data)

    def _bind_mac(self, mac_name: str) -> Callable[[bytes, bytes], bytes]:
        """Bind a known, lower-cased MAC name to its tag callable."""
        if mac_name == "keyed-blake2s":
            return self.keyed_blake2s
        hash_name = _HMAC_HASHES[mac_name]
        hmac_digest = self.hmac_digest
        return lambda key, data: hmac_digest(hash_name, key, data)

    # ------------------------------------------------------------------
    # Generic MAC dispatch (the three constructions of paper Table 1)
    # ------------------------------------------------------------------
    def mac(self, mac_name: str, key: bytes, data: bytes) -> bytes:
        """Compute one of the paper's MAC constructions by name."""
        return self.keyed_mac(mac_name)(key, data)

    def mac_function(self, mac_name: str, key: bytes
                     ) -> Callable[[bytes], bytes]:
        """A fast ``data -> tag`` closure with name and key pre-bound.

        Hot loops that verify thousands of tags under one device key
        (the fleet collection pipeline) resolve the construction and the
        key once instead of per call.
        """
        tag = self.keyed_mac(mac_name)
        return lambda data: tag(key, data)

    def compare_digests(self, left: bytes, right: bytes) -> bool:
        """Constant-time tag comparison, provider-matched.

        The reference provider keeps the from-scratch constant-time
        idiom; the accelerated provider uses the stdlib's C
        implementation — same contract, same result, no timing leak.
        """
        from repro.crypto.constant_time import constant_time_compare
        return constant_time_compare(left, right)

    def __repr__(self) -> str:
        return f"<CryptoBackend {self.name!r}>"


class ReferenceBackend(CryptoBackend):
    """The from-scratch pure-Python implementations (paper-faithful)."""

    name = "reference"

    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        cls = self._hash_class(hash_name)
        return cls(data).digest()

    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        from repro.crypto.hmac import Hmac
        return Hmac(key, data, hash_name=hash_name).digest()

    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        from repro.crypto.blake2s import Blake2s
        return Blake2s(data, key=key, digest_size=digest_size).digest()

    def digest_size(self, hash_name: str) -> int:
        return self._hash_class(hash_name).digest_size

    @staticmethod
    def _hash_class(hash_name: str):
        from repro.crypto.blake2s import Blake2s
        from repro.crypto.sha1 import Sha1
        from repro.crypto.sha256 import Sha256
        classes = {"sha1": Sha1, "sha256": Sha256, "blake2s": Blake2s}
        try:
            return classes[hash_name.lower()]
        except KeyError as exc:
            raise ValueError(f"unknown hash: {hash_name!r}") from exc


class AcceleratedBackend(CryptoBackend):
    """The CPython stdlib (``hashlib`` / ``hmac``) — fast C primitives."""

    name = "accelerated"

    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        try:
            return hashlib.new(hash_name.lower(), data).digest()
        except ValueError as exc:
            raise ValueError(f"unknown hash: {hash_name!r}") from exc

    def hmac_digest(self, hash_name: str, key: bytes, data: bytes) -> bytes:
        return _stdlib_hmac.digest(key, data, hash_name.lower())

    def keyed_blake2s(self, key: bytes, data: bytes,
                      digest_size: int = 32) -> bytes:
        return hashlib.blake2s(data, key=key,
                               digest_size=digest_size).digest()

    def digest_size(self, hash_name: str) -> int:
        try:
            return hashlib.new(hash_name.lower()).digest_size
        except ValueError as exc:
            raise ValueError(f"unknown hash: {hash_name!r}") from exc

    def _bind_hash(self, hash_name: str) -> Callable[[bytes], bytes]:
        constructor = getattr(hashlib, hash_name)
        return lambda data: constructor(data).digest()

    def _bind_mac(self, mac_name: str) -> Callable[[bytes, bytes], bytes]:
        if mac_name == "keyed-blake2s":
            blake2s = hashlib.blake2s
            return lambda key, data: blake2s(data, key=key).digest()
        hash_name = _HMAC_HASHES[mac_name]
        digest = _stdlib_hmac.digest
        return lambda key, data: digest(key, data, hash_name)

    def mac_function(self, mac_name: str, key: bytes
                     ) -> Callable[[bytes], bytes]:
        """A ``data -> tag`` closure over a state keyed once.

        The keyed state (keyed BLAKE2s, or HMAC with its padded key
        already absorbed) is built here, once per device; each call
        copies it, absorbs ``data`` and finalizes the copy, so the base
        state never changes.  The prover-side :meth:`keyed_mac` still
        keys every call, because it models a protected key read.
        """
        lowered = mac_name.lower()
        if lowered == "keyed-blake2s":
            base = hashlib.blake2s(key=key)
        elif lowered in _HMAC_HASHES:
            base = _stdlib_hmac.new(key, digestmod=_HMAC_HASHES[lowered])
        else:
            raise ValueError(f"backend {self.name!r} cannot compute MAC "
                             f"{mac_name!r}")
        copy = base.copy

        def tag(data: bytes) -> bytes:
            state = copy()
            state.update(data)
            return state.digest()
        return tag

    #: The stdlib's C comparison itself, so a judge calls it directly.
    compare_digests = staticmethod(_stdlib_hmac.compare_digest)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, CryptoBackend] = {
    backend.name: backend
    for backend in (ReferenceBackend(), AcceleratedBackend())}
_scoped: str | None = None


def default_backend_name() -> str:
    """The name the default resolves to (:func:`use_backend` > env > builtin)."""
    if _scoped is not None:
        return _scoped
    return os.environ.get(ENV_VAR, DEFAULT_BACKEND_NAME).lower()


def get_backend(name: str | None = None) -> CryptoBackend:
    """The provider called ``name``, or the process default for ``None``."""
    if name is None:
        name = default_backend_name()
    try:
        return _BACKENDS[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(
            f"unknown crypto backend {name!r}; known: {known}") from exc


@contextlib.contextmanager
# statics: ok(dead-public) — test seam: swaps the default crypto backend
def use_backend(name: str) -> Iterator[CryptoBackend]:
    """Make ``name`` the default provider for objects built in the scope."""
    global _scoped
    provider = get_backend(name)
    previous = _scoped
    _scoped = provider.name
    try:
        yield provider
    finally:
        _scoped = previous
