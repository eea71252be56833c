"""Seed-provisioned key material, loaded the way a provisioned card is.

A deployed SCPU does not search for primes at boot: its keys were made
when the card was provisioned.  :func:`provision` plays the provisioning
step — a deterministic prime search driven by the seed, done before any
timer starts — and returns the key material as plain JSON-able dicts.
:func:`load_keyring` and :func:`load_ca` are what a site does at start-up
(and what ``setup_s`` times): parse the dicts into key objects.

Paper-sized parameters: 1024-bit ``s`` and ``d`` keys, a 512-bit burst
key, a 1024-bit CA root, and a 256-bit HMAC key.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import CertificateAuthority, SigningKey
from repro.crypto.numtheory import is_probable_prime, modinv
from repro.crypto.rsa import PUBLIC_EXPONENT, RsaKeyPair, RsaPrivateKey
from repro.hardware.scpu import ScpuKeyring

KEY_BITS = {"s": 1024, "d": 1024, "burst": 512, "ca": 1024}


def _prime(rng: random.Random, bits: int) -> int:
    while True:
        # Top two bits set so that p*q has exactly 2*bits bits.
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        while not is_probable_prime(candidate):
            candidate += 2
        if candidate.bit_length() == bits:
            return candidate


def _private_key(rng: random.Random, bits: int) -> RsaPrivateKey:
    while True:
        p, q = _prime(rng, bits // 2), _prime(rng, bits // 2)
        if p == q:
            continue
        try:
            d = modinv(PUBLIC_EXPONENT, (p - 1) * (q - 1))
        except ValueError:
            continue
        return RsaPrivateKey(n=p * q, e=PUBLIC_EXPONENT, d=d, p=p, q=q,
                             bits=bits)


def provision(seed: int) -> Dict[str, object]:
    """The card and CA key material for *seed* (same seed, same keys)."""
    rng = random.Random(f"perfbench-keys-{seed}")
    material: Dict[str, object] = {
        role: _private_key(rng, bits).to_dict()
        for role, bits in KEY_BITS.items()}
    material["hmac"] = rng.getrandbits(256).to_bytes(32, "big").hex()
    return material


def _signing_key(material: Dict[str, object], role: str) -> SigningKey:
    return SigningKey(
        keypair=RsaKeyPair(RsaPrivateKey.from_dict(material[role])),
        role=role)


def load_keyring(material: Dict[str, object]) -> ScpuKeyring:
    return ScpuKeyring(
        s_key=_signing_key(material, "s"),
        d_key=_signing_key(material, "d"),
        burst_key=_signing_key(material, "burst"),
        hmac=HmacScheme(key=bytes.fromhex(material["hmac"])))


def load_ca(material: Dict[str, object]) -> CertificateAuthority:
    return CertificateAuthority(root_key=_signing_key(material, "ca"))
