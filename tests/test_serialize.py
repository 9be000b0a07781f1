"""File formats: byte-exact round trips and schema rejection."""

import os
import stat

import pytest

from corpus import paper_graph, point
from decompspace import builders, serialize
from decompspace.serialize import SchemaError


def words_sset():
    return builders.free_decomposition(builders.bounded_words(("a", "b"), 2), 3)


class TestRoundTrips:
    def test_sset_bytes_stable(self):
        X = words_sset()
        text = serialize.dumps(serialize.sset_to_obj(X))
        again = serialize.dumps(
            serialize.sset_to_obj(serialize.sset_from_obj(serialize.loads(text)))
        )
        assert text == again

    def test_sset_object_roundtrip(self):
        X = words_sset()
        assert serialize.sset_from_obj(serialize.sset_to_obj(X)) == X

    def test_ofc_roundtrip(self):
        A = builders.graph_paths(paper_graph(), 2)
        obj = serialize.ofc_to_obj(A)
        text = serialize.dumps(obj)
        B = serialize.ofc_from_obj(serialize.loads(text))
        assert B == A
        assert serialize.dumps(serialize.ofc_to_obj(B)) == text

    def test_smap_roundtrip(self):
        lm = builders.length_map(builders.bounded_words(("a",), 2), 3)
        obj = serialize.smap_to_obj(lm)
        text = serialize.dumps(obj)
        back = serialize.smap_from_obj(serialize.loads(text))
        assert back == lm
        assert serialize.dumps(serialize.smap_to_obj(back)) == text

    def test_write_read_file(self, tmp_path):
        path = tmp_path / "x.json"
        serialize.write_file(str(path), serialize.sset_to_obj(point(2)))
        assert serialize.sset_from_obj(serialize.read_file(str(path))) == point(2)


    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_written_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "x.json"
        old = os.umask(0o022)
        try:
            serialize.write_file(str(path), serialize.sset_to_obj(point(1)))
            serialize.write_file(str(path), serialize.sset_to_obj(point(2)))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

class TestSchemaErrors:
    def test_missing_field_points_at_it(self):
        obj = serialize.sset_to_obj(point(1))
        del obj["faces"]
        with pytest.raises(SchemaError, match="faces"):
            serialize.sset_from_obj(obj)

    def test_wrong_kind(self):
        obj = serialize.sset_to_obj(point(1))
        obj["kind"] = "ofc"
        with pytest.raises(SchemaError, match="kind"):
            serialize.sset_from_obj(obj)

    def test_index_out_of_range(self):
        obj = serialize.sset_to_obj(point(1))
        obj["faces"][0][0] = [7]
        with pytest.raises(SchemaError, match="out of range"):
            serialize.sset_from_obj(obj)

    def test_boolean_level_rejected(self):
        obj = serialize.sset_to_obj(point(1))
        obj["level"] = True
        with pytest.raises(SchemaError, match="'level' must be int"):
            serialize.sset_from_obj(obj)

    def test_boolean_bound_rejected(self):
        obj = serialize.ofc_to_obj(builders.terminal_complex(1))
        obj["bound"] = True
        with pytest.raises(SchemaError, match="'bound' must be int"):
            serialize.ofc_from_obj(obj)

    @pytest.mark.parametrize("field", ["faces", "degeneracies"])
    def test_boolean_index_rejected(self, field):
        obj = serialize.sset_to_obj(point(1))
        obj[field][0][0] = [False]
        with pytest.raises(SchemaError, match=rf"{field}\[0\]\[0\]: index False"):
            serialize.sset_from_obj(obj)

    def test_boolean_ofc_index_rejected(self):
        obj = serialize.ofc_to_obj(builders.terminal_complex(1))
        obj["d_bot"][0] = [False]
        with pytest.raises(SchemaError, match=r"d_bot\[0\]: index False"):
            serialize.ofc_from_obj(obj)

    def test_boolean_component_index_rejected(self):
        obj = serialize.smap_to_obj(builders.length_map(builders.bounded_words(("a",), 1), 1))
        obj["components"][0] = [False]
        with pytest.raises(SchemaError, match=r"components\[0\]: index False"):
            serialize.smap_from_obj(obj)

    def test_row_length_mismatch(self):
        obj = serialize.sset_to_obj(point(1))
        obj["faces"][0][0] = []
        with pytest.raises(SchemaError, match="faces"):
            serialize.sset_from_obj(obj)

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            serialize.loads("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError):
            serialize.loads("[1,2]")
