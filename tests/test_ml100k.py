"""Archive converter tests against a fabricated miniature of the official
layout, plus checks against the real dataset when it is on disk."""

import os

import pytest

from sain.data import DatasetManifest, build_dataset, parse_feature_file
from sain.errors import IoError, ParseError
from sain.ml100k import age_bucket, convert_ml100k, find_ml100k

from oracles import columns_dict, slots_of

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAG_COUNT = 19


def _flags(*on):
    cols = ["0"] * FLAG_COUNT
    for j in on:
        cols[j] = "1"
    return "|".join(cols)


def _mini_archive(root):
    """Six users rating five items each, covering every converter code path."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "u.data"), "w") as f:
        for u in range(1, 7):
            for i in range(1, 6):
                f.write(f"{u}\t{i}\t{(u + i) % 5 + 1}\t{880000000 + u * 10 + i}\n")
    with open(os.path.join(root, "u.user"), "w") as f:
        rows = [(1, 24, "M", "technician"), (2, 53, "F", "writer"),
                (3, 7, "M", "student"), (4, 61, "F", "retired"),
                (5, 33, "M", "engineer"), (6, 24, "F", "artist")]
        for uid, age, gender, job in rows:
            f.write(f"{uid}|{age}|{gender}|{job}|00000\n")
    with open(os.path.join(root, "u.genre"), "w") as f:
        names = ["unknown", "Action", "Adventure", "Animation", "Children's",
                 "Comedy", "Crime", "Documentary", "Drama", "Fantasy",
                 "Film-Noir", "Horror", "Musical", "Mystery", "Romance",
                 "Sci-Fi", "Thriller", "War", "Western"]
        for j, name in enumerate(names):
            f.write(f"{name}|{j}\n")
    with open(os.path.join(root, "u.item"), "w") as f:
        f.write(f"1|Film A (1995)|01-Jan-1995||http://a|{_flags(1, 5)}\n")
        f.write(f"2|Film B (1995)|01-Jan-1995||http://b|{_flags(0)}\n")
        f.write(f"3|Film C (1995)|01-Jan-1995||http://c|{_flags(8)}\n")
        f.write(f"4|Film D (1995)|01-Jan-1995||http://d|{_flags(5)}\n")
        f.write(f"5|Film E (1995)|01-Jan-1995||http://e|{_flags(1)}\n")
    return root


class TestAgeBucket:
    def test_decades(self):
        assert age_bucket(7) == "0s"
        assert age_bucket(24) == "20s"
        assert age_bucket(30) == "30s"
        assert age_bucket(61) == "60s"


class TestConverter:
    def test_converted_files(self, tmp_path):
        src = _mini_archive(str(tmp_path / "src"))
        out = str(tmp_path / "out")
        manifest_path = convert_ml100k(src, out)
        assert manifest_path == os.path.join(out, "dataset.json")
        with open(os.path.join(out, "ratings.tsv")) as f:
            lines = f.read().splitlines()
        assert len(lines) == 30
        assert all(len(line.split("\t")) == 4 for line in lines)
        ages = columns_dict(parse_feature_file(os.path.join(out, "user_age.tsv")))
        assert ages["1"] == ["20s"] and ages["4"] == ["60s"]
        genders = columns_dict(parse_feature_file(os.path.join(out, "user_gender.tsv")))
        assert genders["2"] == ["F"]
        jobs = columns_dict(parse_feature_file(os.path.join(out, "user_occupation.tsv")))
        assert jobs["5"] == ["engineer"]
        genres = columns_dict(parse_feature_file(os.path.join(out, "item_genre.tsv")))
        assert genres["1"] == ["Action", "Comedy"]
        assert genres["3"] == ["Drama"]
        # The literal "unknown" flag emits no token at all.
        assert genres["2"] == []

    def test_converted_dataset_builds(self, tmp_path):
        src = _mini_archive(str(tmp_path / "src"))
        manifest_path = convert_ml100k(src, str(tmp_path / "out"))
        data = build_dataset(DatasetManifest.from_file(manifest_path), seed=0)
        assert data.num_users == 6 and data.num_items == 5
        assert data.vocab.fields == ["gender", "age", "occupation", "genre"]
        assert set(data.vocab.tokens["gender"]) == {"M", "F"}
        assert "unknown" not in data.vocab.tokens["genre"]
        # The all-unknown item falls back to the reserved slot.
        flagless = slots_of(data.item_packed, data.vocab, "item")[data.item_ids["2"]]
        assert flagless[0] == [data.vocab.unknown_index("genre")]

    def test_without_u_genre_the_columns_take_the_built_in_names(self, tmp_path):
        # The same archive converts to the same files with and without
        # u.genre, and the names follow the flag columns to the last one.
        src = _mini_archive(str(tmp_path / "src"))
        with open(os.path.join(src, "u.item"), "a") as f:
            f.write(f"6|Film F (1995)|01-Jan-1995||http://f|{_flags(15, 18)}\n")
        convert_ml100k(src, str(tmp_path / "listed"))
        os.remove(os.path.join(src, "u.genre"))
        convert_ml100k(src, str(tmp_path / "built-in"))
        genres = columns_dict(parse_feature_file(
            str(tmp_path / "built-in" / "item_genre.tsv")))
        assert genres["1"] == ["Action", "Comedy"] and genres["3"] == ["Drama"]
        assert genres["6"] == ["Sci-Fi", "Western"] and genres["2"] == []
        for name in ("item_genre.tsv", "dataset.json"):
            assert ((tmp_path / "built-in" / name).read_bytes()
                    == (tmp_path / "listed" / name).read_bytes())

    def test_missing_archive_file(self, tmp_path):
        with pytest.raises(IoError):
            convert_ml100k(str(tmp_path), str(tmp_path / "out"))

    def test_malformed_user_line(self, tmp_path):
        src = _mini_archive(str(tmp_path / "src"))
        with open(os.path.join(src, "u.user"), "a") as f:
            f.write("7|extra|fields|here|are|toomany\n")
        with pytest.raises(ParseError, match="line 7"):
            convert_ml100k(src, str(tmp_path / "out"))


class TestArchiveRows:
    """Every archive file is read by one row reader: a line with the wrong
    number of fields, or an age or genre index that is not an integer, is a
    ParseError naming the file and the line. Blank lines are skipped but
    counted."""

    @pytest.mark.parametrize("name, line, number, message", [
        ("u.data", "7\t1\t3", 31, "expected 4 '\\t'-separated fields, got 3"),
        ("u.user", "7|30|M", 7, "expected 5 '|'-separated fields, got 3"),
        ("u.item", "6|Film F (1995)|01-Jan-1995", 6,
         "expected 24 '|'-separated fields, got 3"),
        ("u.genre", "Extra|19|x", 20, "expected 2 '|'-separated fields, got 3"),
        ("u.user", "7|x|M|writer|00000", 7, "age must be an integer, got 'x'"),
        ("u.genre", "Extra|nineteen", 20, "genre index must be an integer, got 'nineteen'")],
        ids=["data-width", "user-width", "item-width", "genre-width", "user-age",
             "genre-index"])
    def test_bad_line_names_the_file_and_line(self, tmp_path, name, line, number,
                                              message):
        src = _mini_archive(str(tmp_path / "src"))
        with open(os.path.join(src, name), "a") as f:
            f.write(line + "\n")
        with pytest.raises(ParseError) as got:
            convert_ml100k(src, str(tmp_path / "out"))
        assert str(got.value) == f"{os.path.join(src, name)} line {number}: {message}"

    def test_blank_lines_count_in_line_numbers(self, tmp_path):
        src = _mini_archive(str(tmp_path / "src"))
        with open(os.path.join(src, "u.user"), "a") as f:
            f.write("\n   \n7|x|M|writer|00000\n")
        with pytest.raises(ParseError, match="u.user line 9: age must be an integer"):
            convert_ml100k(src, str(tmp_path / "out"))


class TestLocate:
    def test_env_variable_wins(self, tmp_path, monkeypatch):
        d = tmp_path / "somewhere"
        d.mkdir()
        (d / "u.data").write_text("")
        monkeypatch.setenv("SAIN_ML100K_DIR", str(d))
        assert find_ml100k() == str(d)

    def test_data_directory_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SAIN_ML100K_DIR", raising=False)
        d = tmp_path / "data" / "ml-100k"
        d.mkdir(parents=True)
        (d / "u.data").write_text("")
        assert find_ml100k(base_dir=str(tmp_path)) == str(d)

    def test_absent_everywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SAIN_ML100K_DIR", raising=False)
        assert find_ml100k(base_dir=str(tmp_path)) is None


class TestRealDataset:
    def test_filtered_population_and_sparsity(self):
        src = find_ml100k(base_dir=REPO_ROOT)
        if src is None:
            pytest.skip("MovieLens-100k archive not on disk")
        import tempfile

        with tempfile.TemporaryDirectory() as out:
            manifest = convert_ml100k(src, out)
            data = build_dataset(DatasetManifest.from_file(manifest), seed=0)
        # Every user has at least 20 ratings, so the min-5 filter keeps all.
        assert data.num_users == 943 and data.num_items == 1682
        assert len(data.interactions) == 100000
        sparsity = 100.0 * (1.0 - len(data.interactions)
                            / (data.num_users * data.num_items))
        assert abs(sparsity - 93.70) < 0.01
