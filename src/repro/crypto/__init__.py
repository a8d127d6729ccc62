"""Cryptographic primitives implemented from scratch.

ERASMUS measurements are MACs over the prover's memory:
``M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>``.  The paper evaluates three
MAC constructions -- HMAC-SHA1, HMAC-SHA256 and keyed BLAKE2s -- on top
of two security architectures.  This package provides pure-Python,
dependency-free implementations of all of them, plus the HMAC-DRBG
CSPRNG used for irregular measurement scheduling (paper Section 3.5).

The implementations are bit-exact against the standard test vectors
(see ``tests/crypto``) and additionally report *work counts* (number of
compression-function invocations) so that the hardware cost models in
:mod:`repro.hw` can convert cryptographic work into device cycles.

The from-scratch code is the ``reference`` crypto provider; an
``accelerated`` provider backed by the stdlib computes identical values
much faster and is the default.  One provider serves the whole process
(:mod:`repro.crypto.backend`): the ``ERASMUS_CRYPTO_BACKEND``
environment variable names it, and :func:`use_backend` scopes another
one in tests.
"""

from repro.crypto.backend import (
    AcceleratedBackend,
    CryptoBackend,
    ReferenceBackend,
    default_backend_name,
    get_backend,
    use_backend,
)
from repro.crypto.blake2s import Blake2s, keyed_blake2s
from repro.crypto.constant_time import constant_time_compare
from repro.crypto.csprng import HmacDrbg
from repro.crypto.hmac import Hmac
from repro.crypto.mac import MacAlgorithm, get_mac
from repro.crypto.sha1 import Sha1
from repro.crypto.sha256 import Sha256, sha256_digest

__all__ = [
    "AcceleratedBackend",
    "Blake2s",
    "CryptoBackend",
    "Hmac",
    "HmacDrbg",
    "MacAlgorithm",
    "ReferenceBackend",
    "Sha1",
    "Sha256",
    "constant_time_compare",
    "default_backend_name",
    "get_backend",
    "get_mac",
    "keyed_blake2s",
    "sha256_digest",
    "use_backend",
]
