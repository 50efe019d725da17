"""Seeded inputs for the workloads.

The systems form a small fixed pool: the six paper systems (tagged
families) and two overlapping lattice systems whose attractor is [0, 1].
A workload batch is a number of cycles; each cycle asks one query from
every slot, in a fixed order, so every batch has the same mix of kinds
and systems whatever the seed.  The seed picks the concrete word,
offset, ratio or tolerance inside each slot, and queries never repeat
inside a batch, so selfsim's verdict memo cannot answer them.

Every query states what its answer must be: ``included`` and
``excluded`` are known by construction (word maps and exchange maps are
embeddings; perturbed maps fall outside the inventory the paper's
theorems give, or map the hull outside itself), ``open`` queries may come
back unknown, and any verdict must re-check.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

import checker

SYSTEMS = {
    "T1": "m=3 family=three-map rho=1/5 lambda=3/10\n1/5 0\n1/5 3/10\n1/5 4/5\n",
    "T2": "m=3 family=three-map rho=1/5 lambda=2/5\n1/5 0\n1/5 2/5\n1/5 4/5\n",
    "E1": "m=2 family=equal-gap ratios=1/4,1/3\n1/4 0\n1/3 2/3\n",
    "W1": "m=2 family=two-map alpha=1/4 beta=1/3\n1/4 0\n1/3 2/3\n",
    "G1": "m=3 family=grid beta=1/4\n1/4 0\n1/4 3/8\n1/4 3/4\n",
    "F4": "m=4 family=four-map-example\n1/10 0\n1/10 1/10\n1/10 1/2\n1/10 3/5\n",
    "L1": "m=5\n1/2 0\n1/2 1/8\n1/2 1/4\n1/2 3/8\n1/2 1/2\n",
    "L2": "m=5\n1/3 0\n1/3 1/6\n1/3 1/3\n1/3 1/2\n1/3 2/3\n",
}
MAPS = {name: checker.parse_spec(text) for name, text in SYSTEMS.items()}

DEFAULT_DEPTHS = {"point_depth": 4, "cover_depth": 8, "branch_depth": 6}
# branch depth of the open overlap queries
OPEN_BRANCH_DEPTH = 2

# Example 1.4: the complete inventory of the four-map system at ratio +-1/10
FOUR_MAP_OFFSETS = {
    F(1, 10): {F(0), F(1, 20), F(1, 10), F(1, 2), F(11, 20), F(3, 5)},
    F(-1, 10): {F(1, 15), F(7, 60), F(1, 6), F(17, 30), F(37, 60), F(2, 3)},
}
FOUR_MAP_EXCHANGES = ((F(1, 10), F(1, 20)), (F(1, 10), F(11, 20)))


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def digest(items) -> str:
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _rand_word(rng, m: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, m) for _ in range(length))


class _Slot:
    """One position of the cycle: a query kind on one system."""

    def __init__(self, kind, system, make):
        self.kind, self.system, self.make = kind, system, make
        self.maps = MAPS[system]
        self.uses = 0  # queries taken so far; the generators stratify by it

    def stratum(self, *sizes):
        """One index per size for the next query, counting through every
        combination in turn, so that word lengths, signs and the like come
        up equally often in a batch whatever the seed: the cost of a query
        depends on them, and the seed should not move the batch's cost."""
        k, out = self.uses, []
        for n in sizes:
            out.append(k % n)
            k //= n
        return out


def _map_query(kind, system, f, expect, depths=None):
    query = {"kind": kind, "system": system, "ratio": fmt(f[0]),
             "offset": fmt(f[1]), "expect": expect}
    if depths:
        query["depths"] = depths
    return query


def _word_map(slot, rng, lo, hi):
    maps = slot.maps
    extra, flip = slot.stratum(hi - lo + 1, 2)
    f = checker.word_map(maps, _rand_word(rng, len(maps), lo + extra))
    if checker.mirror_symmetric(maps) and flip:
        f = checker.compose(f, checker.reflection(maps))
    return f


def included_word(lo, hi):
    def make(slot, rng):
        return _map_query(slot.kind, slot.system, _word_map(slot, rng, lo, hi), "included")
    return make


def _inventory(maps, ratio):
    if maps == MAPS["F4"] and ratio in FOUR_MAP_OFFSETS:
        return {(ratio, t) for t in FOUR_MAP_OFFSETS[ratio]}
    words = checker.words_with_ratio(maps, abs(ratio))
    out = {checker.word_map(maps, w) for w in words}
    if ratio < 0:
        sigma = checker.reflection(maps)
        out = {checker.compose(g, sigma) for g in out} if checker.mirror_symmetric(maps) else set()
    return out


def excluded_inside(max_len):
    """A map of a word ratio, of either sign, whose image stays in the
    hull but which is not in the system's inventory at that ratio."""
    def make(slot, rng):
        maps = slot.maps
        if slot.system == "F4":
            ratio = sorted(FOUR_MAP_OFFSETS)[slot.stratum(2)[0]]
        else:
            extra, flip = slot.stratum(max_len, 2)
            ratio = checker.word_map(maps, _rand_word(rng, len(maps), 1 + extra))[0]
            ratio = -ratio if flip else ratio
        lo, hi = checker.hull(maps)
        span = (hi - lo) * (1 - abs(ratio))
        inventory = _inventory(maps, ratio)
        while True:
            t = lo + span * F(rng.randint(1, 96), 97)
            if ratio < 0:
                t += abs(ratio) * (hi - lo)
            if (ratio, t) not in inventory:
                return _map_query(slot.kind, slot.system, (ratio, t), "excluded")
    return make


def excluded_escape(slot, rng):
    """A map whose hull image sticks out of the hull."""
    lo, hi = checker.hull(slot.maps)
    ratio = slot.maps[0][0] ** (1 + slot.stratum(2)[0])
    t = hi - ratio * (hi - lo) + ratio * (hi - lo) * F(rng.randint(1, 96), 97)
    return _map_query(slot.kind, slot.system, (ratio, t), "excluded")


def four_map_exchange(slot, rng):
    """phi_w o g for an exchange generator g, sometimes o sigma."""
    maps = slot.maps
    which, extra, flip = slot.stratum(len(FOUR_MAP_EXCHANGES), 2, 2)
    # a nonempty prefix: verify-paper has already settled g1 and g2 themselves
    f = checker.compose(checker.word_map(maps, _rand_word(rng, 4, 1 + extra)),
                        FOUR_MAP_EXCHANGES[which])
    if flip:
        f = checker.compose(f, checker.reflection(maps))
    return _map_query(slot.kind, slot.system, f, "included")


def lattice_exchange(depth):
    """On a lattice system with attractor [0, 1]: ratio r**a and an offset
    ``depth`` refinements finer than the word offsets of that ratio, so only
    a cylinder exchange of that depth certifies it.  Every such map sends
    [0, 1] into itself, so it is an embedding."""
    def make(slot, rng):
        r, step = slot.maps[0][0], slot.maps[1][1]
        base = 1 / r  # refinement factor of the offset lattice per letter
        extra, flip = slot.stratum(2, 2)
        ratio = r ** (1 + extra)
        fine = step * ratio / r / base**depth
        count = int((1 - ratio) / fine)
        while True:
            t = fine * rng.randint(0, count)
            if t % (fine * base) != 0:
                break
        f = (-ratio, t + ratio) if flip else (ratio, t)
        return _map_query(slot.kind, slot.system, f, "included")
    return make


def open_overlap(slot, rng):
    """A ratio that is no word ratio of a lattice system (1/3 on ratio-1/2
    maps, 1/2 otherwise): included in truth, but no certificate exists, so
    unknown at the stated branch depth is an acceptable answer."""
    ratio = F(1, 3) if slot.maps[0][0] == F(1, 2) else F(1, 2)
    t = (1 - ratio) * F(rng.randint(1, 96), 97)
    depths = dict(DEFAULT_DEPTHS, branch_depth=OPEN_BRANCH_DEPTH)
    return _map_query(slot.kind, slot.system, (ratio, t), "open", depths)


def _enumerate_variants(maps):
    ratios = sorted({checker.word_map(maps, w)[0]
                     for w in [(a,) for a in range(1, len(maps) + 1)]
                     + [(a, b) for a in range(1, len(maps) + 1) for b in range(1, len(maps) + 1)]})
    return [(sign * r, cover_depth) for r in ratios for sign in (1, -1) for cover_depth in (8, 7)]


def enumerate_slot(slot, rng):
    """The seed permutes a fixed variant list, so a batch of up to
    len(variants) cycles asks each variant at most once."""
    if not hasattr(slot, "variants"):
        slot.variants = _enumerate_variants(slot.maps)
        rng.shuffle(slot.variants)
    return _enumerate_query(slot.system, *slot.variants[slot.uses % len(slot.variants)])


def _enumerate_query(system, ratio, cover_depth):
    depths = dict(DEFAULT_DEPTHS, cover_depth=cover_depth)
    return {"kind": "enumerate", "system": system, "ratio": fmt(ratio),
            "expect": "inventory", "depths": depths}


def dimension_slot(slot, rng):
    tol = F(1, rng.randint(2**8, 2**16))
    return {"kind": "dimension", "system": slot.system, "tol": fmt(tol), "expect": "enclosure"}


# (kind, system, generator); the order is the order inside a cycle.  The
# mix is chosen so that each median lands inside a group of slots of
# similar cost, not between two groups: cheap checks (equal-gap and lattice
# systems), three-map and grid checks, and four-map checks are 4 : 10 : 2.
STREAM_SLOTS = (
    ("check", "T1", included_word(3, 4)),
    ("check", "T1", included_word(3, 4)),
    ("check", "T1", excluded_inside(2)),
    ("check", "T1", excluded_inside(2)),
    ("check", "T2", included_word(3, 4)),
    ("check", "T2", included_word(3, 4)),
    ("check", "T2", excluded_inside(2)),
    ("check", "E1", included_word(3, 6)),
    ("check", "E1", excluded_inside(2)),
    ("check", "G1", included_word(3, 4)),
    ("check", "G1", included_word(3, 4)),
    ("check", "G1", excluded_inside(2)),
    ("check", "F4", included_word(2, 3)),
    ("check", "F4", excluded_inside(1)),
    ("check", "L1", included_word(1, 3)),
    ("check", "L1", excluded_escape),
    ("decompose", "T1", included_word(2, 5)),
    ("decompose", "T2", included_word(2, 5)),
    ("decompose", "G1", included_word(2, 5)),
    ("decompose", "F4", four_map_exchange),
    ("decompose", "L1", included_word(2, 4)),
    ("enumerate", "T1", enumerate_slot),
    ("enumerate", "T2", enumerate_slot),
    ("enumerate", "E1", enumerate_slot),
    ("enumerate", "W1", enumerate_slot),
    ("enumerate", "G1", enumerate_slot),
    ("branch", "F4", four_map_exchange),
    ("branch", "L1", lattice_exchange(2)),
    ("branch", "L2", lattice_exchange(1)),
    ("branch", "L1", open_overlap),
    ("branch", "L2", open_overlap),
    ("dimension", "T1", dimension_slot),
    ("dimension", "F4", dimension_slot),
    ("dimension", "L1", dimension_slot),
)


def _key(query):
    # what selfsim's verdict memo would key on: system, map and depths
    return (query["system"], query["kind"] == "enumerate", query.get("ratio"),
            query.get("offset"), query.get("tol"),
            json.dumps(query.get("depths", DEFAULT_DEPTHS), sort_keys=True))


def stream_batch(seed: int, batch: int, cycles: int, slots=STREAM_SLOTS) -> list[dict]:
    """``cycles`` cycles of ``slots``, distinct within the batch,
    reproducible from (seed, batch)."""
    rng = random.Random(f"stream:{seed}:{batch}")
    slots = [_Slot(kind, system, make) for kind, system, make in slots]
    seen = set()
    out = []
    for _cycle in range(cycles):
        for slot in slots:
            for _attempt in range(1000):
                query = slot.make(slot, rng)
                if _key(query) not in seen:
                    break
                slot.uses += 1
            else:
                raise RuntimeError(f"slot {slot.kind}/{slot.system} ran out of distinct queries")
            seen.add(_key(query))
            slot.uses += 1
            out.append(query)
    return out


# -- cli-cold ---------------------------------------------------------------

# (kind, system, generator); each command is one cold process.  Cheap
# commands (no deep cover), three-map and grid commands, and four-map
# commands are 5 : 7 : 2, so the medians land inside a group.
CLI_SLOTS = (
    ("check", "T1", included_word(1, 3)),
    ("check", "T1", excluded_inside(2)),
    ("check", "T2", excluded_inside(2)),
    ("check", "G1", included_word(1, 3)),
    ("check", "G1", excluded_inside(2)),
    ("check", "F4", excluded_inside(1)),
    ("decompose", "G1", included_word(2, 4)),
    ("enumerate", "E1", enumerate_slot),
    ("enumerate", "W1", enumerate_slot),
    ("enumerate", "T1", enumerate_slot),
    ("cover", "T1", None),
    ("branch", "L1", lattice_exchange(1)),
    ("branch", "L1", open_overlap),
    ("branch", "F4", four_map_exchange),
)
CLI_COVER_DEPTHS = (7,)


def cli_batch(seed: int, batch: int) -> list[dict]:
    """One cycle of cli-cold queries, reproducible from (seed, batch)."""
    rng = random.Random(f"cli:{seed}:{batch}")
    out = []
    for kind, system, make in CLI_SLOTS:
        slot = _Slot(kind, system, make)
        slot.uses = batch  # consecutive cycles take consecutive strata
        if kind == "cover":
            out.append({"kind": "cover", "system": system,
                        "depth": rng.choice(CLI_COVER_DEPTHS), "expect": "cover"})
        else:
            out.append(make(slot, rng))
    return out


def cli_args(query: dict, spec_path: str, svg_path: str) -> list[str]:
    """selfsim command-line arguments for one query."""
    kind = query["kind"]
    if kind == "cover":
        return ["cover", spec_path, "--depth", str(query["depth"]),
                "--svg", svg_path, "--format", "record"]
    command = "check" if kind == "branch" else kind
    if kind == "enumerate":
        args = [command, spec_path, "--ratio", query["ratio"]]
    else:
        args = [command, spec_path, query["ratio"], query["offset"]]
    depths = query.get("depths", DEFAULT_DEPTHS)
    for name in ("point_depth", "cover_depth", "branch_depth"):
        if depths[name] != DEFAULT_DEPTHS[name]:
            args += ["--" + name.replace("_", "-"), str(depths[name])]
    return args + ["--format", "record"]
