"""Differential fuzz of the scenario parser against another checkout.

    python tests/parse_diff.py OTHER_CHECKOUT [--seed 1] [--count 20000]

Makes ``--count`` mutations of ``FULL`` from ``test_scenario_io``: one node
(the root included) replaced by a random JSON value, or one key deleted.
This checkout's and OTHER_CHECKOUT's ``parse_document`` each read every
mutation in a process of their own; a mutation matches when both raise the
same exception type and message, or both accept it with equal
``document_to_dict``. Prints the counts and every mismatch, and exits 1 on
any mismatch.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STRINGS = ["", "a", "a-tx", "b", "omni", "sectored", "dish", "free-space", "log-distance"]
NUMBERS = [0, 1, -1, 2, 10**400, -(2**1030), 0.0, -0.0, 1.5, -125.0, 360.0, 1e308, 1e-320,
           float("inf"), float("nan")]
KEYS = ["", "a", "id", "kind", "model", "band", "rate", "omni"]


def _value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 2 else 4)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice(NUMBERS + [rng.randint(-999, 999), rng.uniform(-200.0, 200.0)])
    if kind == 3:
        return rng.choice(STRINGS)
    if kind == 4:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randrange(4))}


def mutations(full: dict, paths: list, seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        path = rng.choice(paths)
        data = json.loads(json.dumps(full))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if path and isinstance(path[-1], str) and rng.random() < 0.3:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = _value(rng)
        else:
            data = _value(rng)
        out.append(data)
    return out


def _outcomes(src: str, batch: str) -> None:
    """Child process: one line per mutation, parsed by the package under ``src``."""
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, src)
    from spectrumspace.scenario_io import document_to_dict, parse_document

    with open(batch, "rb") as fh:
        docs = pickle.load(fh)
    for data in docs:
        try:
            line = "ok " + json.dumps(document_to_dict(parse_document(data)), sort_keys=True)
        except Exception as exc:
            line = f"{type(exc).__name__}: {exc}"
        print(line.replace("\n", "\\n"))


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        _outcomes(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20000)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    from test_scenario_io import FULL, _paths

    docs = mutations(FULL, list(_paths(FULL)), args.seed, args.count)
    with tempfile.NamedTemporaryFile(suffix=".pkl") as batch:
        pickle.dump(docs, batch)
        batch.flush()
        mine, theirs = (
            subprocess.run([sys.executable, __file__, "--child", str(Path(root) / "src"),
                            batch.name], capture_output=True, text=True, check=True
                           ).stdout.splitlines()
            for root in (ROOT, args.other))
    differ = [i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b]
    accepted = sum(line.startswith("ok ") for line in mine)
    print(f"{len(docs)} mutations, {accepted} accepted, {len(docs) - accepted} rejected, "
          f"{len(differ)} differ")
    for i in differ[:20]:
        print(f"mutation {i}:\n  this:  {mine[i][:300]}\n  other: {theirs[i][:300]}")
    return 1 if differ or len(mine) != len(docs) or len(theirs) != len(docs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
