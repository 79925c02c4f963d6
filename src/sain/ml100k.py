"""Converter from the official MovieLens-100k archive layout (u.data, u.user,
u.item, u.genre) into this package's tab-separated files plus a dataset
manifest. Only the attributes shipped in the archive are extracted: user
gender, age (bucketed by decade), occupation, and item genres.

The archive itself is not bundled; point the converter at an unpacked copy
(u.data etc. in one directory). Every archive file is read by one row
reader, `_rows`: Latin-1 lines stripped of surrounding whitespace, blank
lines skipped. A line with the wrong number of fields, or an age or genre
index that is not an integer, is a ParseError naming the file and the line.
"""

from __future__ import annotations

import json
import os

from .errors import IoError, ParseError

GENRES = ("unknown", "Action", "Adventure", "Animation", "Children's", "Comedy",
          "Crime", "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror",
          "Musical", "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western")

ENV_VAR = "SAIN_ML100K_DIR"


def find_ml100k(base_dir: str | None = None) -> str | None:
    """Locate an unpacked archive: the SAIN_ML100K_DIR environment variable, or
    data/ml-100k under base_dir (default: current directory)."""
    candidates = []
    if os.environ.get(ENV_VAR):
        candidates.append(os.environ[ENV_VAR])
    root = base_dir or os.getcwd()
    candidates.append(os.path.join(root, "data", "ml-100k"))
    for c in candidates:
        if os.path.isfile(os.path.join(c, "u.data")):
            return c
    return None


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise IoError(f"file not found: {path}")
    return path


def _rows(path: str, sep: str, width: int):
    """(line number, fields) of each non-blank line of an archive file, read
    as Latin-1 with surrounding whitespace stripped. A line with another
    number of fields is a ParseError naming the path and the line."""
    with open(path, encoding="latin-1") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(sep)
            if len(fields) != width:
                raise ParseError(f"{path} line {lineno}: expected {width} "
                                 f"{sep!r}-separated fields, got {len(fields)}")
            yield lineno, fields


def _integer(path: str, lineno: int, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{path} line {lineno}: {what} must be an integer, "
                         f"got {text!r}") from None


def _read_genres(src_dir: str) -> list[str]:
    """Genre names in column order, from u.genre when present."""
    path = os.path.join(src_dir, "u.genre")
    if not os.path.isfile(path):
        return list(GENRES)
    names = sorted((_integer(path, lineno, "genre index", index), name)
                   for lineno, (name, index) in _rows(path, "|", 2))
    return [name for _, name in names]


def age_bucket(age: int) -> str:
    """Decade bucket, e.g. 7 -> '0s', 24 -> '20s', 61 -> '60s'."""
    return f"{(int(age) // 10) * 10}s"


def convert_ml100k(src_dir: str, out_dir: str) -> str:
    """Write ratings.tsv, the three user feature files, item_genre.tsv, and
    dataset.json into out_dir. Returns the manifest path."""
    u_data = _require(os.path.join(src_dir, "u.data"))
    u_user = _require(os.path.join(src_dir, "u.user"))
    u_item = _require(os.path.join(src_dir, "u.item"))
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "ratings.tsv"), "w", encoding="utf-8") as out:
        for _, fields in _rows(u_data, "\t", 4):
            out.write("\t".join(fields) + "\n")

    with open(os.path.join(out_dir, "user_gender.tsv"), "w", encoding="utf-8") as g, \
            open(os.path.join(out_dir, "user_age.tsv"), "w", encoding="utf-8") as a, \
            open(os.path.join(out_dir, "user_occupation.tsv"), "w", encoding="utf-8") as o:
        for lineno, (uid, age, gender, occupation, _zip) in _rows(u_user, "|", 5):
            g.write(f"{uid}\t{gender}\n")
            a.write(f"{uid}\t{age_bucket(_integer(u_user, lineno, 'age', age))}\n")
            o.write(f"{uid}\t{occupation}\n")

    genres = _read_genres(src_dir)
    with open(os.path.join(out_dir, "item_genre.tsv"), "w", encoding="utf-8") as out:
        for _, fields in _rows(u_item, "|", 5 + len(genres)):
            # The literal "unknown" column maps to the reserved unknown slot
            # by emitting no token at all.
            names = [genres[j] for j, flag in enumerate(fields[5:])
                     if flag == "1" and genres[j] != "unknown"]
            out.write(f"{fields[0]}\t{'|'.join(names)}\n")

    manifest = {
        "ratings": "ratings.tsv",
        "min_ratings": 5,
        "tag_top_t": 50,
        "features": [
            {"field": "gender", "owner": "user", "path": "user_gender.tsv",
             "open": False},
            {"field": "age", "owner": "user", "path": "user_age.tsv",
             "open": False},
            {"field": "occupation", "owner": "user", "path": "user_occupation.tsv",
             "open": False},
            {"field": "genre", "owner": "item", "path": "item_genre.tsv",
             "open": False},
        ],
    }
    manifest_path = os.path.join(out_dir, "dataset.json")
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path
