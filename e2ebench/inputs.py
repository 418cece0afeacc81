"""Workload inputs: frozen truth tables, request payloads, seeded order.

``inputs.json`` holds every function the benchmark sends as explicit
on/dc truth tables (hex bitmasks, bit ``p`` = minterm ``p``), so the
inputs do not move when the program's benchmark registry changes.  It is
written by ``select_inputs.py``, which also records every output it left
out and why.  The program only ever sees PLA text built here.

The seed changes request order, never request content: totals such as
``literals`` must repeat exactly across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

INPUTS_PATH = Path(__file__).with_name("inputs.json")

# serve-mix arrivals, in seconds.  Group g starts with the cold request
# of base g; FOLLOW_AT later, when that solve is long done, come the
# exact repeat and the two deltas of base g - 1, whose cold solve was a
# whole group earlier.  Below saturation each request meets an idle
# server, so latency does not depend on which bases the seed puts side
# by side; a slower program starts to queue and the open loop shows it.
GROUP_S = 0.5
FOLLOW_AT = (0.30, 0.37, 0.44)


@dataclass(frozen=True)
class Function:
    label: str
    n: int
    on: np.ndarray   # bool[2**n]
    dc: np.ndarray   # bool[2**n]

    @cached_property
    def pla(self) -> str:
        """A single-output type-fd PLA listing every on and dc minterm."""
        lines = [f".i {self.n}", ".o 1"]
        for value, points in (("1", self.on), ("-", self.dc)):
            for p in np.flatnonzero(points):
                lines.append("".join("1" if (p >> i) & 1 else "0" for i in range(self.n)) + " " + value)
        lines.append(".e")
        return "\n".join(lines) + "\n"

    def toggled(self, points: list[int]) -> "Function":
        """The delta-request edit: on→dc, dc→on, off→on."""
        on, dc = self.on.copy(), self.dc.copy()
        for p in points:
            if on[p]:
                on[p], dc[p] = False, True
            elif dc[p]:
                on[p], dc[p] = True, False
            else:
                on[p] = True
        return Function(f"{self.label}+d{len(points)}", self.n, on, dc)

    def delta_toggles(self) -> list[list[int]]:
        """The two fixed edits each serve-mix base is re-sent with:
        one on-point, then two on-points, moved to the dc-set."""
        on = np.flatnonzero(self.on)
        return [[int(on[len(on) // 3])], [int(on[1]), int(on[-2])]]


@dataclass
class Request:
    key: str              # distinct-request key (stable across seeds)
    cls: str              # cold | warm | hit
    payload: dict
    func: Function        # the function the answer must realize
    body: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        self.body = json.dumps(self.payload).encode("ascii")


def _mask(hexstr: str, n: int) -> np.ndarray:
    value = int(hexstr, 16)
    bits = np.frombuffer(value.to_bytes((1 << n) // 8 or 1, "little"), dtype=np.uint8)
    return np.unpackbits(bits, bitorder="little")[: 1 << n].astype(bool)


def to_hex(points: np.ndarray) -> str:
    packed = np.packbits(points.astype(np.uint8), bitorder="little")
    return format(int.from_bytes(packed.tobytes(), "little"), "x")


def load() -> dict:
    data = json.loads(INPUTS_PATH.read_text())
    data["functions"] = {
        label: Function(label, f["n"], _mask(f["on"], f["n"]), _mask(f["dc"], f["n"]))
        for label, f in data["functions"].items()
    }
    return data


def closed_requests(data: dict, workload: str) -> list[Request]:
    """One cold request per distinct output of a closed-loop workload."""
    spec = data["workloads"][workload]
    out = []
    for label in spec["outputs"]:
        func = data["functions"][label]
        payload = {"pla": func.pla, "label": label, "method": spec["method"]}
        if spec["method"] == "heuristic":
            payload["k"] = spec["k"]
        out.append(Request(label, "cold", payload, func))
    return out


def seeded_order(count: int, seed: int, pass_index: int) -> list[int]:
    order = list(range(count))
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order


def serve_mix_schedule(data: dict, seed: int, pass_index: int) -> list[tuple[float, Request]]:
    """One serve-mix pass as ``(due offset in seconds, request)`` pairs.

    The seed assigns bases to groups and orders the three follow-ups;
    arrival times and request contents are fixed.
    """
    labels = data["workloads"]["serve-mix"]["bases"]
    rng = random.Random(seed * 1_000_003 + pass_index)
    bases = [data["functions"][labels[i]] for i in seeded_order(len(labels), seed, pass_index)]
    out: list[tuple[float, Request]] = []
    for g in range(len(bases) + 1):
        start = g * GROUP_S
        if g < len(bases):
            func = bases[g]
            payload = {"pla": func.pla, "label": func.label, "include_form": True}
            out.append((start, Request(func.label, "cold", payload, func)))
        if g >= 1:
            func = bases[g - 1]
            base = {"pla": func.pla, "label": func.label}
            follow = [Request(f"{func.label}#hit", "hit", dict(base, include_form=True), func)]
            for toggles in func.delta_toggles():
                edited = func.toggled(toggles)
                payload = {"base": base, "delta": {"toggles": toggles}, "include_form": True}
                follow.append(Request(edited.label, "warm", payload, edited))
            rng.shuffle(follow)
            out.extend((start + at, r) for at, r in zip(FOLLOW_AT, follow))
    return out
