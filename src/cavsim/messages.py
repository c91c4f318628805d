"""Message shapes shared by perception, networking, and vehicle modules.

A collective perception message (CPM) is the single data shape flowing
both on the V2X network and between in-vehicle modules.  Two parts of a
CPM are in-vehicle only: the `local` flag, set on a CPM the vehicle's own
camera produced, and the private extensions (string key -> opaque bytes)
that a module may attach.  Both are stripped before a CPM is broadcast,
so neither reaches a recipient or the wire.

PerceivedObject and Cpm are plain slots dataclasses, not frozen ones:
a frozen dataclass costs several times as much to build, and these are
built per perceived object and per broadcast.  A value may be shared by
many modules and recipients, so treat it as read-only.  Not being
frozen, neither is hashable.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Mapping

NO_STATION = 0  # sender_station sentinel for messages that never hit the wire


@dataclass(slots=True)
class PerceivedObject:
    """One observed vehicle: numberplate plus ground-truth pose.

    Read-only by convention (see the module docstring).
    """

    plate: str
    x: float
    y: float
    heading: float
    observed_tick: int


@dataclass(slots=True)
class Cpm:
    """Collective perception message.

    Read-only by convention (see the module docstring).  `local` marks a
    CPM produced inside the vehicle; it and `extensions` never leave the
    vehicle.
    """

    sender_station: int
    gen_tick: int
    sender_pose: tuple[float, float, float]
    objects: tuple[PerceivedObject, ...] = ()
    extensions: Mapping[str, bytes] = field(default_factory=dict)
    local: bool = False

    def without_extensions(self) -> "Cpm":
        """This CPM as it goes on the wire: no extensions, not local."""
        if not self.extensions and not self.local:
            return self
        return Cpm(self.sender_station, self.gen_tick, self.sender_pose,
                   self.objects, {})


def local_cpm(station: int | None, tick: int,
              pose: tuple[float, float, float],
              objects: tuple[PerceivedObject, ...]) -> Cpm:
    """A CPM produced inside the vehicle, flagged as locally sourced."""
    return Cpm(station if station is not None else NO_STATION,
               tick, pose, objects, {}, True)


_PROOF = struct.Struct("<II")
PROOF_EXT_PREFIX = "proof/"


@dataclass(frozen=True, slots=True)
class ProofToken:
    """Opaque observation proof: a prover attests it saw a target plate.

    Stands in for a real cryptographic proof; treated as unforgeable.
    """

    prover: int
    target: str
    tick: int
    nonce: bytes

    @classmethod
    def create(cls, prover: int, target: str, tick: int) -> "ProofToken":
        digest = hashlib.sha256(f"{prover}:{target}:{tick}".encode()).digest()
        return cls(prover, target, tick, digest[:8])

    def extension_entry(self) -> tuple[str, bytes]:
        return (PROOF_EXT_PREFIX + self.target,
                _PROOF.pack(self.prover, self.tick) + self.nonce)

    @classmethod
    def from_extension(cls, key: str, value: bytes) -> "ProofToken":
        prover, tick = _PROOF.unpack_from(value)
        return cls(prover, key[len(PROOF_EXT_PREFIX):], tick,
                   value[_PROOF.size:])
