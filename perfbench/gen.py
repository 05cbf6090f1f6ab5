"""Seeded request generators for the three workloads.

Every generator is a pure function of ``(seed, stream name, tenant
info)``: the same seed yields the identical request sequence, and the
program under test only ever sees the generated requests.  ``info`` is
the tenant description written by ``launcher.py build`` (attribute
domains, population size, negative-decision rows).

A request is ``(route, body)`` where ``route`` names the endpoint under
``/v1/<tenant>/`` (e.g. ``"explain/global"``) and ``body`` is its JSON.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

Request = tuple[str, dict]

MAX_PAIRS = (2, 4, 8, 16)
LOCAL_BATCH_ROWS = 32
SCORE_CONTRASTS = 8
RECOURSE_COHORT = 100
#: alpha grid for recourse cohorts: 0.600, 0.601, ..., 0.900
ALPHA_STEPS = 301
MAX_DELTA_ROWS = 20
READS_PER_UPDATE = 3


def stream_rng(seed: int | str, stream: str) -> random.Random:
    """Independent deterministic RNG per (seed, stream)."""
    return random.Random(f"perfbench:{seed}:{stream}")


def _blocks(rng: random.Random, items) -> Iterator:
    """``items`` in a fresh random order, block after block.

    Stratifies a stream's composition: every block holds each item once,
    so two seeds differ in order and content but not in their mix.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _subset(rng: random.Random, names: list[str], low: int) -> list[str] | None:
    """A random attribute subset (sorted), or ``None`` for "all"."""
    if rng.random() < 0.25:
        return None
    k = rng.randint(low, len(names))
    return sorted(rng.sample(names, k))


def _context(rng: random.Random, info: dict, size: int) -> dict:
    return {
        name: rng.choice(info["domains"][name])
        for name in sorted(rng.sample(info["features"], size))
    }


def explain_global(rng: random.Random, info: dict) -> Request:
    body = {"max_pairs_per_attribute": rng.choice(MAX_PAIRS)}
    attributes = _subset(rng, info["features"], 2)
    if attributes is not None:
        body["attributes"] = attributes
    return "explain/global", body


#: demographics that pair with ``sex`` in 2-attribute contexts
PAIRED_CONTEXT = ("age", "country", "marital")


def explain_context(rng: random.Random, info: dict) -> Request:
    """A 1-attribute context, or a demographic plus ``sex``.

    Freer 2-attribute contexts (e.g. ``edu`` with ``occup``) leave some
    adjustment cells empty, which the service rightly refuses with 422.
    """
    if rng.random() < 0.5:
        context = _context(rng, info, 1)
    else:
        name = rng.choice(PAIRED_CONTEXT)
        context = {
            name: rng.choice(info["domains"][name]),
            "sex": rng.choice(info["domains"]["sex"]),
        }
    rest = [n for n in info["features"] if n not in context]
    body = {"context": context, "max_pairs_per_attribute": rng.choice(MAX_PAIRS[:3])}
    attributes = _subset(rng, rest, 1)
    if attributes is not None:
        body["attributes"] = attributes
    return "explain/context", body


def local_batch(rng: random.Random, info: dict) -> Request:
    indices = sorted(rng.sample(range(info["n_rows"]), LOCAL_BATCH_ROWS))
    return "explain/local_batch", {"indices": indices}


def scores(rng: random.Random, info: dict) -> Request:
    context = _context(rng, info, rng.randint(0, 1))
    names = [n for n in info["features"] if n not in context]
    contrasts = []
    for _ in range(SCORE_CONTRASTS):
        name = rng.choice(names)
        value, baseline = rng.sample(info["domains"][name], 2)
        contrasts.append([{name: value}, {name: baseline}])
    return "scores", {"contrasts": contrasts, "context": context}


def recourse_batch(rng: random.Random, info: dict) -> Request:
    indices = sorted(rng.sample(info["negative_indices"], RECOURSE_COHORT))
    alpha = round(0.6 + 0.001 * rng.randrange(ALPHA_STEPS), 3)
    return "recourse/batch", {"indices": indices, "alpha": alpha, "mode": "exact"}


def delta(rng: random.Random, info: dict, k: int) -> Request:
    """``k`` inserted rows balanced by as many deletes (size stays fixed)."""
    names = info["features"]
    inserts = [
        {name: rng.choice(info["domains"][name]) for name in names}
        for _ in range(k)
    ]
    deletes = sorted(rng.sample(range(info["n_rows"]), k))
    return "update", {"insert": inserts, "delete": deletes}


def explain_mix(seed: int | str, client: int, info: dict) -> Iterator[Request]:
    """Read-only analyst traffic; 20% exact repeats of recent requests."""
    rng = stream_rng(seed, f"explain_mix:{client}")
    recent: deque[Request] = deque([explain_global(rng, info)], maxlen=8)
    kinds = (explain_global, explain_context, scores, local_batch, None)
    for kind in _blocks(rng, kinds):
        if kind is None:
            yield rng.choice(recent)
            continue
        request = kind(rng, info)
        recent.append(request)
        yield request


def recourse_audit(seed: int | str, client: int, info: dict) -> Iterator[Request]:
    rng = stream_rng(seed, f"recourse_audit:{client}")
    while True:
        yield recourse_batch(rng, info)


def update_writer(seed: int | str, info: dict, stream: str = "writer") -> Iterator[Request]:
    """Deltas of 1-20 rows, every size once per block of 20."""
    rng = stream_rng(seed, f"update_stream:{stream}")
    for k in _blocks(rng, range(1, MAX_DELTA_ROWS + 1)):
        yield delta(rng, info, k)


def update_reader(seed: int | str, info: dict) -> Iterator[Request]:
    """Reads beside the update stream; 1 in 20 a local batch.

    Every local batch after an update refits the local models (~100 ms);
    at 1 in 10 those refits and the updates queued behind them made up
    the whole latency tail, and p90 swung with them.
    """
    rng = stream_rng(seed, "update_stream:reader")
    kinds = (local_batch,) + (explain_global,) * 9 + (scores,) * 10
    for kind in _blocks(rng, kinds):
        yield kind(rng, info)


def update_stream(seed: int | str, info: dict) -> Iterator[Request]:
    """Writer and reader taking turns: each delta, then ``READS_PER_UPDATE`` reads.

    Every read meets the state (and the purged cache) the latest update
    left, and the read:write ratio is fixed rather than set by which of
    two racing clients runs faster.  With one write in four requests the
    median latency lies inside the read mode and the p90 inside the
    update mode; a ratio that let the median fall between the two modes
    (as two free-running clients did, at ~1:1.5) swung it by 25%.
    """
    writer, reader = update_writer(seed, info), update_reader(seed, info)
    while True:
        yield next(writer)
        for _ in range(READS_PER_UPDATE):
            yield next(reader)


def warmup(info: dict, workload: str) -> list[Request]:
    """Fixed warm-up set: fits local models, loads tensors, primes the solver."""
    rng = stream_rng(0, f"warmup:{workload}")
    requests = [explain_global(rng, info) for _ in range(4)]
    requests += [explain_context(rng, info) for _ in range(4)]
    requests += [scores(rng, info) for _ in range(4)]
    requests += [local_batch(rng, info) for _ in range(2)]
    if workload == "recourse_audit":
        requests += [recourse_batch(rng, info) for _ in range(3)]
    return requests


def probes(info: dict) -> list[Request]:
    """Fixed read set compared before a kill and after the restore."""
    rng = stream_rng(0, "probes")
    return [
        ("explain/global", {}),
        explain_context(rng, info),
        scores(rng, info),
        local_batch(rng, info),
    ]
