"""Schema, embedding, head layout, and file-format behavior."""

import dataclasses
import struct

import numpy as np
import pytest

import mixformer as mx
from mixformer import autodiff as ad

from conftest import random_request


class TestSchema:
    def test_sides_partition_width(self, tiny_schema):
        assert tiny_schema.d_ns_user == 5
        assert tiny_schema.d_ns_item == 6
        assert tiny_schema.d_ns == 11
        assert tiny_schema.action_dim == 5

    def test_user_fields_keep_context(self, tiny_schema):
        names = [f.name for f in tiny_schema.user_fields()]
        assert names == ["uid", "ctx"]
        assert [f.name for f in tiny_schema.item_fields()] == ["iid", "icat"]

    def test_interleaved_declaration_matches_grouped(self):
        grouped = mx.FeatureSchema(
            nonseq_fields=(
                mx.FeatureField("u1", "user", 5, 2),
                mx.FeatureField("u2", "context", 5, 3),
                mx.FeatureField("i1", "item", 5, 2),
            ),
            action_fields=(mx.ActionField("a", 5, 2),),
            max_seq_len=4,
        )
        interleaved = mx.FeatureSchema(
            nonseq_fields=(
                mx.FeatureField("u1", "user", 5, 2),
                mx.FeatureField("i1", "item", 5, 2),
                mx.FeatureField("u2", "context", 5, 3),
            ),
            action_fields=(mx.ActionField("a", 5, 2),),
            max_seq_len=4,
        )
        assert grouped.d_ns_user == interleaved.d_ns_user == 5
        assert [f.name for f in interleaved.user_fields()] == ["u1", "u2"]

        rng = np.random.default_rng(0)
        tables = mx.make_tables(grouped, rng)
        req = mx.Request(
            user_id=1, user_nonseq=[1, 2],
            actions=np.array([[0, 0]]), candidates=np.array([[3]]),
        )
        batch = mx.stack_requests([req])
        a = mx.embed_nonseq_batch(batch, tables, grouped)
        b = mx.embed_nonseq_batch(batch, tables, interleaved)
        np.testing.assert_array_equal(a.data, b.data)

    def test_table_name_clash_rejected(self):
        # action tables are keyed 'action:<name>', beside the field names
        with pytest.raises(mx.DataError):
            mx.FeatureSchema(
                nonseq_fields=(mx.FeatureField("action:a", "user", 5, 2),),
                action_fields=(mx.ActionField("a", 7, 3),),
                max_seq_len=4,
            )

    def test_bad_side_rejected(self):
        with pytest.raises(mx.DataError):
            mx.FeatureField("x", "banana", 5, 2)


class TestTables:
    def test_lookup_out_of_range(self, tiny_schema):
        tables = mx.make_tables(tiny_schema, np.random.default_rng(0))
        with pytest.raises(mx.VocabError):
            tables["uid"].lookup(11)
        with pytest.raises(mx.VocabError):
            tables["uid"].lookup(-1)

    def test_action_tables_are_separate(self, tiny_schema):
        tables = mx.make_tables(tiny_schema, np.random.default_rng(0))
        # item id 3 and sequence action id 3 must come from different rows
        assert "action:aid" in tables
        a = tables["action:aid"].weight.data
        b = tables["iid"].weight.data
        assert a.shape != b.shape or not np.array_equal(a[:, :3], b[:, :3])

    def test_init_scale(self, tiny_schema):
        tables = mx.make_tables(tiny_schema, np.random.default_rng(0))
        w = tables["iid"].weight.data
        assert abs(float(w.std()) - 0.1) < 0.05


class TestHeadLayout:
    def test_undecoupled_tail_pad(self, tiny_schema):
        lay = mx.head_layout(tiny_schema, n_heads=4)
        # one side of 11 over 4 heads: ceil(11 / 4) = 3 -> padded to 12
        assert lay.sides == ((0, 4, 11),)
        assert lay.slice_width == 3
        assert 4 * lay.slice_width - 11 == 1

    def test_decoupled_pads_each_side(self, tiny_schema):
        lay = mx.head_layout(tiny_schema, n_heads=4, n_user_heads=2)
        # user 5 over 2 heads and item 6 over 2 heads -> width 3
        assert lay.sides == ((0, 2, 5), (2, 4, 6))
        assert lay.slice_width == 3
        assert [(hi - lo) * lay.slice_width - w for lo, hi, w in lay.sides] == [1, 0]

    def test_head_boundary_never_straddles_sides(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d_u = int(rng.integers(1, 40))
            d_g = int(rng.integers(1, 40))
            n = int(rng.integers(2, 9))
            n_u = int(rng.integers(1, n))
            schema = mx.schema_from_widths(d_u, d_g, 4, 4)
            lay = mx.head_layout(schema, n, n_u)
            assert lay.sides == ((0, n_u, d_u), (n_u, n, d_g))
            assert lay.slice_width == max(-(-d_u // n_u), -(-d_g // (n - n_u)))
            assert d_u <= n_u * lay.slice_width
            assert d_g <= (n - n_u) * lay.slice_width

    @pytest.mark.parametrize("n_heads, n_user_heads", [(0, 0), (4, -1), (4, 4)])
    def test_bad_head_counts_are_shape_errors(self, tiny_schema, n_heads, n_user_heads):
        with pytest.raises(mx.ShapeError):
            mx.head_layout(tiny_schema, n_heads, n_user_heads)


class TestSplitHeads:
    def test_identity_projection_hand_case(self):
        schema = mx.schema_from_widths(2, 2, 1, 1)
        lay = mx.head_layout(schema, n_heads=2)
        proj = np.stack([np.eye(2), 2 * np.eye(2)])
        out = mx.split_heads(np.array([1.0, 2.0, 3.0, 4.0]), proj, lay)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [6.0, 8.0]])

    def test_padding_slots_are_zero(self):
        schema = mx.schema_from_widths(3, 2, 1, 1)
        lay = mx.head_layout(schema, n_heads=2, n_user_heads=1)
        # user 3 fills its head; item 2 gets one pad column
        assert lay.sides == ((0, 1, 3), (1, 2, 2))
        assert lay.slice_width == 3
        proj = np.stack([np.eye(3), np.eye(3)])
        out = mx.split_heads(np.array([1.0, 2, 3, 4, 5]), proj, lay)
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [4, 5, 0]])

    def test_linear_in_input(self):
        rng = np.random.default_rng(1)
        schema = mx.schema_from_widths(5, 6, 1, 1)
        lay = mx.head_layout(schema, n_heads=4)
        proj = rng.standard_normal((4, 7, lay.slice_width))
        x, y = rng.standard_normal(11), rng.standard_normal(11)
        a, b = 0.3, -1.7
        lhs = mx.split_heads(a * x + b * y, proj, lay).data
        rhs = a * mx.split_heads(x, proj, lay).data + b * mx.split_heads(y, proj, lay).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(2)
        schema = mx.schema_from_widths(5, 6, 1, 1)
        lay = mx.head_layout(schema, n_heads=4)
        proj = rng.standard_normal((4, 7, lay.slice_width))
        x = rng.standard_normal((2, 3, 11))
        batched = mx.split_heads(x, proj, lay).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(
                    batched[i, j], mx.split_heads(x[i, j], proj, lay).data
                )

    def test_head_range_projects_only_its_side(self):
        rng = np.random.default_rng(3)
        schema = mx.schema_from_widths(5, 6, 1, 1)
        lay = mx.head_layout(schema, n_heads=4, n_user_heads=1)
        proj = rng.standard_normal((4, 7, lay.slice_width))
        x = rng.standard_normal((2, 11))
        full = mx.split_heads(x, proj, lay).data
        user = mx.split_heads(x[:, :5], proj, lay, (0, 1)).data
        item = mx.split_heads(x[:, 5:], proj, lay, (1, 4)).data
        np.testing.assert_array_equal(user, full[:, :1])
        np.testing.assert_array_equal(item, full[:, 1:])
        with pytest.raises(mx.ShapeError):
            mx.split_heads(x[:, 5:], proj, lay, (2, 4))


class TestBatching:
    def test_stack_requires_common_shape(self, tiny_schema):
        rng = np.random.default_rng(0)
        a = random_request(tiny_schema, rng, seq_len=4)
        b = random_request(tiny_schema, rng, seq_len=5)
        with pytest.raises(mx.DataError):
            mx.stack_requests([a, b])

    def test_side_embeddings_are_slices_of_the_concat(self, tiny_schema):
        rng = np.random.default_rng(3)
        tables = mx.make_tables(tiny_schema, rng)
        batch = mx.stack_requests([random_request(tiny_schema, rng) for _ in range(2)])
        full = mx.embed_nonseq_batch(batch, tables, tiny_schema).data
        user = mx.embed_nonseq_batch(batch, tables, tiny_schema, item=False).data
        item = mx.embed_nonseq_batch(batch, tables, tiny_schema, user=False).data
        d_u = tiny_schema.d_ns_user
        assert user.shape == (2, 1, d_u)
        np.testing.assert_array_equal(np.broadcast_to(user, (2, 3, d_u)), full[..., :d_u])
        np.testing.assert_array_equal(item, full[..., d_u:])

    def test_as_batch_matches_stack(self, tiny_schema):
        req = random_request(tiny_schema, np.random.default_rng(4))
        one = dataclasses.replace(req, candidates=req.candidates[1:2], labels=req.labels[1:2])
        a, b = req.as_batch(slice(1, 2)), mx.stack_requests([one])
        for name in ("user_ids", "user_nonseq", "actions", "candidates", "labels"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestWidths:
    """Requests hold ids as int32 and labels as uint8, the file's <u4 and <u1."""

    @pytest.fixture
    def written(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(4)
        reqs = [random_request(tiny_schema, rng, seq_len=int(t)) for t in (0, 3, 6, 6)]
        p = tmp_path / "data.bin"
        mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=reqs))
        return reqs, p

    def test_built_read_and_stacked_requests_hold_file_widths(self, written, tiny_schema):
        reqs, p = written
        read = mx.read_dataset(str(p), tiny_schema).requests
        for r in (*reqs, *read, mx.stack_requests(reqs[2:]), mx.stack_requests(read[2:])):
            for name in ("user_nonseq", "actions", "candidates"):
                assert getattr(r, name).dtype == np.int32, name
            assert r.labels.dtype == np.uint8

    def test_read_then_rewrite_is_byte_identical(self, written, tiny_schema, tmp_path):
        _, p = written
        again = tmp_path / "again.bin"
        mx.write_dataset(str(again), mx.read_dataset(str(p), tiny_schema))
        assert again.read_bytes() == p.read_bytes()

    def test_read_requests_do_not_hold_the_file_bytes(self, written, tiny_schema):
        # a view of the file's bytes would keep the whole file alive, and
        # every view of those immutable bytes is read-only
        _, p = written
        for r in mx.read_dataset(str(p), tiny_schema).requests:
            for a in (r.user_nonseq, r.actions, r.candidates, r.labels):
                assert a.flags.writeable


class TestFileFormats:
    def test_schema_round_trip(self, tmp_path, tiny_schema):
        p = tmp_path / "schema.txt"
        mx.write_schema(str(p), tiny_schema)
        back = mx.read_schema(str(p))
        assert back == tiny_schema

    def test_dataset_round_trip(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(4)
        reqs = [random_request(tiny_schema, rng, seq_len=int(t)) for t in (0, 3, 6)]
        ds = mx.Dataset(schema=tiny_schema, requests=reqs)
        p = tmp_path / "data.bin"
        mx.write_dataset(str(p), ds)
        back = mx.read_dataset(str(p), tiny_schema)
        assert len(back.requests) == 3
        for a, b in zip(reqs, back.requests):
            assert a.user_id == b.user_id
            np.testing.assert_array_equal(a.user_nonseq, b.user_nonseq)
            np.testing.assert_array_equal(a.actions, b.actions)
            np.testing.assert_array_equal(a.candidates, b.candidates)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_dataset_without_labels(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(5)
        reqs = [random_request(tiny_schema, rng, with_labels=False)]
        p = tmp_path / "data.bin"
        mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=reqs))
        back = mx.read_dataset(str(p), tiny_schema)
        assert back.requests[0].labels is None

    def test_unencodable_request_rejected(self, tmp_path, tiny_schema):
        # K is a u16 in a record
        req = random_request(tiny_schema, np.random.default_rng(5), n_candidates=70000)
        p = tmp_path / "data.bin"
        with pytest.raises(mx.DataError):
            mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=[req]))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field, value, error", [
        ("candidates", 2**32 + 3, mx.VocabError),  # a <u4 cast would write the valid id 3
        ("candidates", -1, mx.VocabError),
        ("candidates", 13, mx.VocabError),  # past iid's vocabulary
        ("actions", 2**31, mx.VocabError),
        ("labels", 2, mx.DataError),
    ])
    def test_invalid_request_rejected_before_write(self, tmp_path, tiny_schema, field, value, error):
        req = random_request(tiny_schema, np.random.default_rng(5))
        bad = getattr(req, field).astype(np.int64)
        bad[-1, 0] = value
        reqs = [req, dataclasses.replace(req, **{field: bad})]
        with pytest.raises(error):
            mx.write_dataset(str(tmp_path / "data.bin"), mx.Dataset(tiny_schema, reqs))
        assert list(tmp_path.iterdir()) == []

    def test_id_past_int32_rejected_under_any_vocabulary(self, tmp_path, tiny_schema):
        fields = list(tiny_schema.nonseq_fields)
        fields[2] = mx.FeatureField("iid", "item", 2**33, 4)
        huge = dataclasses.replace(tiny_schema, nonseq_fields=tuple(fields))
        req = random_request(tiny_schema, np.random.default_rng(5))
        cands = req.candidates.astype(np.int64)
        cands[0, 0] = 2**32 + 3
        bad = dataclasses.replace(req, candidates=cands)
        with pytest.raises(mx.VocabError):
            bad.validate(huge)
        with pytest.raises(mx.VocabError):
            mx.write_dataset(str(tmp_path / "data.bin"), mx.Dataset(huge, [bad]))
        assert list(tmp_path.iterdir()) == []

    def test_mixed_label_tasks_rejected_before_write(self, tmp_path, tiny_schema):
        # the file holds one task count, or none, for every request
        req = random_request(tiny_schema, np.random.default_rng(5))
        for other in (
            dataclasses.replace(req, labels=req.labels[:, :1]),
            dataclasses.replace(req, labels=None),
        ):
            with pytest.raises(mx.DataError):
                mx.write_dataset(str(tmp_path / "data.bin"), mx.Dataset(tiny_schema, [req, other]))
            assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path, tiny_schema):
        p = tmp_path / "data.bin"
        p.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(p), tiny_schema)

    def test_truncation_rejected(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(6)
        reqs = [random_request(tiny_schema, rng) for _ in range(2)]
        p = tmp_path / "data.bin"
        mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=reqs))
        blob = p.read_bytes()
        p.write_bytes(blob[:-3])
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(p), tiny_schema)

    def test_trailing_bytes_rejected(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(6)
        reqs = [random_request(tiny_schema, rng)]
        p = tmp_path / "data.bin"
        mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=reqs))
        p.write_bytes(p.read_bytes() + b"x")
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(p), tiny_schema)

    def test_schema_mismatch_rejected(self, tmp_path, tiny_schema):
        rng = np.random.default_rng(6)
        p = tmp_path / "data.bin"
        mx.write_dataset(
            str(p), mx.Dataset(schema=tiny_schema, requests=[random_request(tiny_schema, rng)])
        )
        other = mx.FeatureSchema(
            nonseq_fields=tiny_schema.nonseq_fields[:2],
            action_fields=tiny_schema.action_fields,
            max_seq_len=tiny_schema.max_seq_len,
        )
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(p), other)

    @pytest.mark.parametrize("bit", range(1, 8))
    def test_label_bit_flip_rejected_on_read(self, tmp_path, tiny_schema, bit):
        # a label byte that is neither 0 nor 1 is corrupt, never a label
        rng = np.random.default_rng(6)
        p = tmp_path / "dataset.bin"
        reqs = [random_request(tiny_schema, rng) for _ in range(2)]
        mx.write_dataset(str(p), mx.Dataset(schema=tiny_schema, requests=reqs))
        blob = bytearray(p.read_bytes())
        blob[-1] ^= 1 << bit  # the last label of the last request
        p.write_bytes(bytes(blob))
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(p), tiny_schema)

    def test_out_of_vocab_ids_rejected_on_read(self, tmp_path, tiny_schema):
        # shrink a vocab after writing: stored ids become invalid; a <u4 id
        # that int32 cannot hold is out of range too, never a wrapped id.
        # write_dataset rejects such ids, so they are patched into the file
        # as its first record's user id
        rng = np.random.default_rng(6)
        p = tmp_path / "data.bin"
        mx.write_dataset(
            str(p), mx.Dataset(schema=tiny_schema, requests=[random_request(tiny_schema, rng)])
        )
        clean = p.read_bytes()
        uid = 4 + mx.features._HEADER.size + mx.features._RECORD.size
        shrunk = mx.FeatureSchema(
            nonseq_fields=(
                mx.FeatureField("uid", "user", 2, 3),
            ) + tiny_schema.nonseq_fields[1:],
            action_fields=tiny_schema.action_fields,
            max_seq_len=tiny_schema.max_seq_len,
        )
        for stored in (10, 2**31, 2**32 - 1):
            p.write_bytes(clean[:uid] + struct.pack("<I", stored) + clean[uid + 4:])
            with pytest.raises(mx.VocabError):
                mx.read_dataset(str(p), shrunk)

    def test_oracle_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        probs = [rng.random((3, 2)), rng.random((2, 2))]
        p = tmp_path / "oracle.csv"
        mx.write_oracle(str(p), probs)
        back = mx.read_oracle(str(p))
        assert len(back) == 2
        for a, b in zip(probs, back):
            np.testing.assert_array_equal(a, b)

    def test_oracle_text_is_pinned(self, tmp_path):
        # %.17g of each value: zeros and ones bare; the smallest subnormal
        # and the doubles nearest 0.1 and 1/3 at 17 significant digits
        probs = [np.array([[0.0, 1.0], [5e-324, 0.1]]), np.array([[1 / 3, 0.0]])]
        p = tmp_path / "oracle.csv"
        mx.write_oracle(str(p), probs)
        assert p.read_text() == (
            "request,candidate,p0,p1\n"
            "0,0,0,1\n"
            "0,1,4.9406564584124654e-324,0.10000000000000001\n"
            "1,0,0.33333333333333331,0\n"
        )

    @pytest.mark.parametrize("body", [
        b"x,0,0.5\n",  # request index not an integer
        b"0,0,high\n",  # probability not a number
        b"0,0,8.5\n",  # probability out of range
        b"0,0,nan\n",
        b"0,0,0.5\xff\n",  # not UTF-8
        b"0,0,0.5\n0,2,0.5\n",  # candidate 1 missing
        b"0,0,0.5\n0,1,0.5,0.5\n",  # task counts differ
    ])
    def test_corrupt_oracle_rows_raise_data_error(self, tmp_path, body):
        p = tmp_path / "oracle.csv"
        p.write_bytes(b"request,candidate,p0\n" + body)
        with pytest.raises(mx.DataError, match="oracle.csv"):
            mx.read_oracle(str(p))

    def test_non_utf8_schema_raises_data_error(self, tmp_path, tiny_schema):
        p = tmp_path / "schema.txt"
        mx.write_schema(str(p), tiny_schema)
        p.write_bytes(p.read_bytes().replace(b"uid", b"u\xe9d"))
        with pytest.raises(mx.DataError, match="schema.txt"):
            mx.read_schema(str(p))

    def test_missing_files_raise_data_error(self, tmp_path, tiny_schema):
        with pytest.raises(mx.DataError):
            mx.read_schema(str(tmp_path / "nope.txt"))
        with pytest.raises(mx.DataError):
            mx.read_dataset(str(tmp_path / "nope.bin"), tiny_schema)
        with pytest.raises(mx.DataError):
            mx.read_oracle(str(tmp_path / "nope.csv"))
