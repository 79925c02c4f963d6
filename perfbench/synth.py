"""Seeded workload generator. Writes a ratings file, one feature file per
field and a dataset manifest in the formats `sain.data` reads.

Item popularity is Zipf, user activity is log-normal, and every rating is
    mu + user bias + item bias + low-rank u.v + feature effect + noise,
rounded into [1, 5], so a trained model can beat the train-mean predictor.

Run as a module to write one workload:
    python3 -m perfbench.synth --workload ml100k-default --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

RATING_MU = 3.5
BIAS_STD = 0.35
LATENT_RANK = 4
LATENT_STD = 0.35
FIELD_EFFECT_STD = 0.25
INTERACTION_STD = 0.3
NOISE_STD = 0.6


@dataclass(frozen=True)
class Field:
    """One feature file: each entity gets min..max distinct tokens out of
    `vocab`, drawn with Zipf(`skew`) token popularity (0 means uniform)."""

    name: str
    owner: str
    vocab: int
    min_tokens: int = 1
    max_tokens: int = 1
    open: bool = False
    skew: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                 # "sain" or "biasedmf"
    users: int
    items: int
    ratings: int
    fields: tuple[Field, ...]
    model_config: dict
    epochs: int = 1
    learning_rate: float = 1e-3
    activity_sigma: float = 0.8
    item_zipf: float = 0.9
    min_ratings: int = 5
    tag_top_t: int = 50
    # How the run samples it: a set-up every `setup_every` rounds, and
    # `predict_stretches` stretches of single-pair predictions per round.
    setup_every: int = 1
    predict_stretches: int = 1

    def scaled(self, scale: float) -> "Workload":
        """The same workload with users, items and ratings multiplied by
        `scale` (used by the benchmark's own tests)."""
        if scale == 1.0:
            return self
        return replace(self, users=max(20, int(self.users * scale)),
                       items=max(20, int(self.items * scale)),
                       ratings=max(400, int(self.ratings * scale)))


GENDER = Field("gender", "user", 2)
AGE = Field("age", "user", 7)
OCCUPATION = Field("occupation", "user", 21)
GENRE = Field("genre", "item", 19, 1, 3, skew=0.8)

WORKLOADS = {w.name: w for w in (
    Workload("ml100k-default", "sain", users=943, items=1682, ratings=100_000,
             fields=(GENDER, AGE, OCCUPATION, GENRE),
             model_config={"embed_dim": 64, "num_heads": 2, "top_k": 8,
                           "dropout_rate": 0.1},
             epochs=2, activity_sigma=0.6),
    Workload("wide-topk", "sain", users=2000, items=1000, ratings=60_000,
             fields=(GENDER, AGE, OCCUPATION, Field("region", "user", 40),
                     GENRE,
                     Field("tag", "item", 400, 0, 20, open=True, skew=1.0),
                     Field("actor", "item", 600, 1, 5, skew=0.8),
                     Field("director", "item", 250, skew=0.5),
                     Field("decade", "item", 9),
                     Field("language", "item", 12, skew=1.2)),
             model_config={"embed_dim": 64, "num_heads": 4, "top_k": 4,
                           "dropout_rate": 0.1},
             learning_rate=1e-2, activity_sigma=0.7),
    Workload("mf-large-catalog", "biasedmf", users=15_000, items=8000,
             ratings=160_000,
             fields=(GENDER, AGE, OCCUPATION, GENRE,
                     Field("tag", "item", 400, 0, 20, open=True, skew=1.0)),
             model_config={"embed_dim": 64},
             activity_sigma=1.1, setup_every=2, predict_stretches=20),
)}


def _zipf(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf(s) probabilities over n ids, with ranks assigned to ids at random."""
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return rng.permutation(p / p.sum())


def _draw_tokens(field: Field, count: int, rng: np.random.Generator) -> list[list[int]]:
    p = _zipf(field.vocab, field.skew, rng)
    sizes = rng.integers(field.min_tokens, field.max_tokens + 1, size=count)
    draws = rng.choice(field.vocab, size=(count, max(1, field.max_tokens) * 2), p=p)
    return [list(dict.fromkeys(row.tolist()))[:k] for row, k in zip(draws, sizes)]


def _standardize(e: np.ndarray, std: float) -> np.ndarray:
    """Rescale to exactly mean 0 and the given std, so that every seed plants
    the same amount of signal and noise and seeds differ in their draws, not
    in how hard they are."""
    spread = e.std()
    return (e - e.mean()) / spread * std if spread > 0 else np.zeros_like(e)


def generate(workload: Workload, seed: int, out_dir: str) -> str:
    """Write the workload's files into out_dir; returns the manifest path.
    The same (workload, seed) always writes the same bytes."""
    rng = np.random.default_rng([int(seed), zlib.crc32(workload.name.encode())])
    U, I = workload.users, workload.items

    activity = rng.lognormal(0.0, workload.activity_sigma, size=U)
    per_user = np.maximum(1, np.round(workload.ratings * activity / activity.sum()))
    per_user = np.minimum(per_user, I // 2).astype(np.int64)
    # Oversample, drop repeated (user, item) pairs, then keep each user's
    # first per_user distinct items.
    users = np.repeat(np.arange(U), 3 * per_user)
    items = rng.choice(I, size=users.size, p=_zipf(I, workload.item_zipf, rng))
    _, first = np.unique(users * I + items, return_index=True)
    keep = np.sort(first)
    users, items = users[keep], items[keep]
    rank = np.arange(users.size) - np.searchsorted(users, users)
    keep = rank < per_user[users]
    users, items = users[keep], items[keep]
    order = rng.permutation(users.size)
    users, items = users[order], items[order]

    tokens = {f.name: _draw_tokens(f, U if f.owner == "user" else I, rng)
              for f in workload.fields}
    # Each term, and then their sum, is standardized over the ratings, so
    # that heavy users and popular items do not make one seed harder than
    # another.
    terms = [(rng.normal(size=U)[users], BIAS_STD),
             (rng.normal(size=I)[items], BIAS_STD)]
    pu = rng.normal(size=(U, LATENT_RANK))
    qi = rng.normal(size=(I, LATENT_RANK))
    terms.append((np.einsum("br,br->b", pu[users], qi[items]), LATENT_STD))
    for f in workload.fields:
        token_effect = rng.normal(size=f.vocab)
        eff = np.asarray([token_effect[t].mean() if t else 0.0 for t in tokens[f.name]])
        terms.append((eff[users] if f.owner == "user" else eff[items], FIELD_EFFECT_STD))
    # One user-field x item-field interaction: the signal only a model that
    # sees both sides' features can use.
    uf = next(f for f in workload.fields if f.owner == "user")
    itf = next(f for f in workload.fields if f.owner == "item")
    table = rng.normal(size=(uf.vocab, itf.vocab))
    u_tok = np.asarray([t[0] for t in tokens[uf.name]])
    item_hot = np.zeros((I, itf.vocab))
    for j, toks in enumerate(tokens[itf.name]):
        if toks:
            item_hot[j, toks] = 1.0 / len(toks)
    terms.append((np.einsum("bv,bv->b", table[u_tok[users]], item_hot[items]),
                  INTERACTION_STD))
    signal = sum(_standardize(t, std) for t, std in terms)
    signal_std = float(np.sqrt(sum(std ** 2 for _, std in terms)))
    raw = (RATING_MU + _standardize(signal, signal_std)
           + _standardize(rng.normal(size=users.size), NOISE_STD))
    ratings = np.clip(np.rint(raw), 1, 5).astype(np.int64)
    stamps = 874_000_000 + np.sort(rng.integers(0, 20_000_000, users.size))

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ratings.tsv"), "w", encoding="utf-8") as f:
        f.write("".join(f"{u + 1}\t{i + 1}\t{r}\t{t}\n"
                        for u, i, r, t in zip(users.tolist(), items.tolist(),
                                              ratings.tolist(), stamps.tolist())))
    features = []
    for fld in workload.fields:
        path = f"{fld.owner}_{fld.name}.tsv"
        with open(os.path.join(out_dir, path), "w", encoding="utf-8") as f:
            f.write("".join(f"{e + 1}\t{'|'.join(f'{fld.name[0]}{t}' for t in toks)}\n"
                            for e, toks in enumerate(tokens[fld.name])))
        features.append({"field": fld.name, "owner": fld.owner, "path": path,
                         "open": fld.open})
    manifest = {"ratings": "ratings.tsv", "min_ratings": workload.min_ratings,
                "tag_top_t": workload.tag_top_t, "features": features}
    path = os.path.join(out_dir, "dataset.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    generate(WORKLOADS[args.workload].scaled(args.scale), args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
